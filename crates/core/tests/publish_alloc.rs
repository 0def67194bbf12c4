//! Allocation guards for patched snapshot publication.
//!
//! DESIGN.md §5f's cost claims, made hard tests. A counting global
//! allocator (same idiom as `tests/snapshot_alloc.rs`; one
//! `#[global_allocator]` per test binary, hence this file) measures the
//! allocation count and bytes of whole write operations (create, and
//! `book_checked`: route splice plus publish):
//!
//! 1. Publishing after a booking that dirtied `k` cluster segments
//!    performs **O(k)** allocations — a copy of the blocks the dirt
//!    lands in plus the `k` rebuilt segments — so the count stays flat
//!    when the region grows ~4x in clusters.
//! 2. Ride rows live in 64-slot blocks by id, so a publish copies only
//!    the blocks its dirty rides land in: the **bytes** a create or a
//!    booking allocates stay flat when the shard holds 10x more rides
//!    elsewhere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use xar_core::{EngineConfig, RideOffer, RideRequest, ShardedXarEngine};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph};

thread_local! {
    /// Per-thread allocation count and bytes (the libtest harness's
    /// main thread allocates concurrently; process-global counts would
    /// be flaky).
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

fn thread_bytes() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        THREAD_BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn region(side: usize, seed: u64) -> Arc<RegionIndex> {
    let graph = Arc::new(CityConfig::manhattan(side, side, seed).generate());
    let pois = sample_pois(&graph, &PoiConfig { count: side * side / 2, ..Default::default() });
    Arc::new(RegionIndex::build(
        graph,
        &pois,
        RegionConfig { cluster_goal: ClusterGoal::Delta(200.0), ..Default::default() },
    ))
}

/// Small detour budgets keep each write's dirty set to a handful of
/// clusters, the regime where a patch shares most of the snapshot.
fn offer(g: &RoadGraph, i: u32) -> RideOffer {
    let n = g.node_count() as u32;
    RideOffer::simple(
        g.point(NodeId((i * 97) % n)),
        g.point(NodeId((i * 181 + n / 2) % n)),
        8.0 * 3600.0 + f64::from(i % 40) * 45.0,
        4,
        700.0,
    )
}

fn request(g: &RoadGraph, i: u32) -> RideRequest {
    let n = g.node_count() as u32;
    RideRequest {
        source: g.point(NodeId((i * 53) % n)),
        destination: g.point(NodeId((i * 131 + n / 3) % n)),
        window_start_s: 7.5 * 3600.0,
        window_end_s: 10.0 * 3600.0,
        walk_limit_m: 900.0,
    }
}

/// One shard, `rides` offers: a booking dirties a few clusters of a
/// shard holding *all* the region's entries.
fn populated(region: &Arc<RegionIndex>, rides: u32) -> ShardedXarEngine {
    let eng = ShardedXarEngine::new(Arc::clone(region), EngineConfig::default(), 1);
    let g = region.graph();
    for i in 0..rides {
        let _ = eng.create_ride(&offer(g, i));
    }
    eng
}

/// Mean allocations of one successful `book_checked` (route splice +
/// snapshot publish). Searches run *outside* the counting window — the
/// read path has its own guard (`tests/snapshot_alloc.rs`).
fn booking_allocs(eng: &ShardedXarEngine, bookings: u32, seed0: u32) -> f64 {
    let mut counted = 0u64;
    let mut done = 0u32;
    let mut seed = seed0;
    while done < bookings {
        seed += 1;
        assert!(seed < seed0 + 40_000, "ran out of bookable matches after {done} bookings");
        let Ok(ms) = eng.search(&request(region_graph(eng), seed), 4) else { continue };
        for m in &ms {
            let before = thread_allocs();
            let res = eng.book_checked(m);
            let delta = thread_allocs() - before;
            if res.is_ok() {
                counted += delta;
                done += 1;
                break;
            }
        }
    }
    counted as f64 / f64::from(bookings)
}

fn region_graph(eng: &ShardedXarEngine) -> &RoadGraph {
    eng.region().graph()
}

#[test]
fn incremental_publish_allocates_o_dirty_not_o_clusters() {
    const BOOKINGS: u32 = 12;
    let small = region(14, 31);
    let large = region(40, 31);
    assert!(
        large.cluster_count() >= small.cluster_count() * 3,
        "fixture lost its contrast: {} vs {} clusters",
        small.cluster_count(),
        large.cluster_count()
    );

    // Population scales with the region so full rebuilds touch a
    // proportional number of non-empty segments.
    let eng_small = populated(&small, 220);
    let eng_large = populated(&large, 1_400);

    // Warm both engines (scratch vectors, hash maps, histograms).
    let _ = booking_allocs(&eng_small, 2, 50_000);
    let _ = booking_allocs(&eng_large, 2, 50_000);

    let inc_small = booking_allocs(&eng_small, BOOKINGS, 0);
    let inc_large = booking_allocs(&eng_large, BOOKINGS, 0);

    let ctx = format!(
        "allocs/booking: {inc_small:.1}->{inc_large:.1} ({} -> {} clusters)",
        small.cluster_count(),
        large.cluster_count()
    );
    eprintln!("{ctx}");

    // The patching path's allocation count does not follow the cluster
    // count.
    assert!(inc_large < inc_small * 3.0, "incremental publish scaled with region size: {ctx}");
}

/// Nodes of `g`, west to east.
fn by_longitude(g: &RoadGraph) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = (0..g.node_count() as u32).map(NodeId).collect();
    nodes.sort_by(|&a, &b| g.point(a).lon.total_cmp(&g.point(b).lon));
    nodes
}

fn median(mut xs: Vec<u64>) -> u64 {
    assert!(!xs.is_empty());
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Median bytes allocated by one create and by one successful booking
/// of a fixed workload in the region's western third, on a one-shard
/// engine that first parks `parked` rides in its eastern third. The
/// parked rides share the shard's ride table but none of the western
/// clusters, so only the ride table can make the measured writes cost
/// more. Medians keep a one-off hash-map resize out of the figure.
fn west_write_bytes(region: &Arc<RegionIndex>, parked: u32) -> (u64, u64) {
    let g = region.graph();
    let nodes = by_longitude(g);
    let third = nodes.len() / 3;
    let (west, east) = (&nodes[..third], &nodes[nodes.len() - third..]);
    let pick = |side: &[NodeId], i: u32| g.point(side[(i as usize * 7_919) % side.len()]);
    let ride = |side: &[NodeId], i: u32, depart_s: f64| {
        RideOffer::simple(pick(side, 2 * i), pick(side, 2 * i + 1), depart_s, 4, 300.0)
    };
    let eng = ShardedXarEngine::new(Arc::clone(region), EngineConfig::default(), 1);
    for i in 0..parked {
        let _ = eng.create_ride(&ride(east, i, 8.0 * 3600.0));
    }
    assert!(eng.ride_count() * 10 >= parked as usize * 9, "too few parked rides");

    const RIDES: u32 = 24;
    let mut creates = Vec::new();
    for i in 0..RIDES {
        let offer = ride(west, i, 8.0 * 3600.0 + f64::from(i) * 60.0);
        let before = thread_bytes();
        if eng.create_ride(&offer).is_ok() {
            creates.push(thread_bytes() - before);
        }
    }
    // Each request retraces one western ride, so it has a match.
    let mut books = Vec::new();
    for i in 0..RIDES {
        let req = RideRequest {
            source: pick(west, 2 * i),
            destination: pick(west, 2 * i + 1),
            window_start_s: 7.5 * 3600.0,
            window_end_s: 10.0 * 3600.0,
            walk_limit_m: 900.0,
        };
        let Ok(ms) = eng.search(&req, 4) else { continue };
        for m in &ms {
            let before = thread_bytes();
            if eng.book_checked(m).is_ok() {
                books.push(thread_bytes() - before);
                break;
            }
        }
    }
    assert!(creates.len() >= 12 && books.len() >= 12, "workload lost its writes: {creates:?} {books:?}");
    (median(creates), median(books))
}

#[test]
fn publish_bytes_stay_flat_as_the_shard_parks_more_rides() {
    let region = region(24, 31);
    let (create_few, book_few) = west_write_bytes(&region, 60);
    let (create_many, book_many) = west_write_bytes(&region, 600);
    let ctx = format!(
        "bytes/create {create_few}->{create_many}, bytes/booking {book_few}->{book_many} \
         (60 -> 600 parked rides)"
    );
    eprintln!("{ctx}");
    // 10x the parked rides adds one 8-byte block pointer per 64 rides
    // to the directory copy and nothing else.
    const SLACK: u64 = 256;
    assert!(create_many <= create_few + SLACK, "create publish grew with the shard's rides: {ctx}");
    assert!(book_many <= book_few + SLACK, "booking publish grew with the shard's rides: {ctx}");
}
