//! End-to-end parallel-driver tests against the real sharded engine:
//! outcome-counter conservation (no lost updates) and capacity safety
//! (no overbooking) under 8 concurrent closed-loop workers.

use std::sync::Arc;

use xar_core::{EngineConfig, ShardedXarEngine};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, PoiConfig};
use xar_workload::{
    generate_trips, run_parallel_dispatch, run_simulation, DispatchSpec, ShardedXarBackend,
    SimConfig, TripGenConfig, XarBackend,
};

fn region() -> Arc<RegionIndex> {
    let graph = Arc::new(CityConfig::manhattan(25, 25, 42).generate());
    let pois = sample_pois(&graph, &PoiConfig { count: 700, ..Default::default() });
    Arc::new(RegionIndex::build(
        Arc::clone(&graph),
        &pois,
        RegionConfig {
            landmark_separation_m: 220.0,
            cluster_goal: ClusterGoal::Delta(150.0),
            max_walk_m: 900.0,
            ..Default::default()
        },
    ))
}

#[test]
fn parallel_simulation_conserves_requests_and_never_overbooks() {
    const TRIPS: usize = 400;
    const THREADS: usize = 8;
    let reg = region();
    let graph = Arc::clone(reg.graph());
    let trips = generate_trips(&graph, &TripGenConfig { count: TRIPS, ..Default::default() });
    let cfg = SimConfig::default();
    let backend = ShardedXarBackend::new(ShardedXarEngine::new(reg, EngineConfig::default(), 4));
    let report = run_parallel_dispatch(&backend, &trips, &cfg, THREADS, DispatchSpec::First);

    // Conservation: every trip resolved to exactly one outcome, in the
    // merged report AND in the shared registry counters (satellite:
    // `sim.requests{outcome}` must sum to requests issued — lost
    // updates would show up as a shortfall here).
    assert_eq!(report.booked + report.created + report.unservable, TRIPS as u64);
    let registry = report.registry.as_ref().expect("backend registry attached");
    let by_outcome: u64 = ["booked", "created", "unservable"]
        .iter()
        .map(|o| registry.counter_with("sim.requests", &[("outcome", o)]).get())
        .sum();
    assert_eq!(by_outcome, TRIPS as u64);
    assert_eq!(registry.counter("sim.requests_total").get(), TRIPS as u64);
    assert_eq!(report.booked, registry.counter_with("sim.requests", &[("outcome", "booked")]).get());
    assert!(report.booked > 0, "hotspot workload must produce shares under contention");

    // Capacity safety: no ride ever exceeded its offered seat count.
    let mut rides = 0usize;
    backend.engine.for_each_ride(|r| {
        rides += 1;
        assert!(
            r.bookings.len() + usize::from(r.seats_available) == usize::from(cfg.seats),
            "ride {:?} seat accounting drifted: {} bookings, {} free, {} offered",
            r.id,
            r.bookings.len(),
            r.seats_available,
            cfg.seats
        );
    });
    assert!(rides > 0, "some rides must still be live at the end of the run");

    // The engine counted every search exactly once (lookups disabled ⇒
    // one search per trip).
    assert_eq!(report.looks, TRIPS as u64);
    assert_eq!(backend.engine.stats().snapshot().searches, TRIPS as u64);
}

#[test]
fn single_threaded_parallel_driver_matches_serial_outcomes() {
    // With one worker the parallel driver replays trips in the same
    // order as the serial driver, so a 1-shard engine must produce the
    // identical outcome counts — the drivers implement the same
    // protocol.
    let reg = region();
    let graph = Arc::clone(reg.graph());
    let trips = generate_trips(&graph, &TripGenConfig { count: 200, ..Default::default() });
    let cfg = SimConfig::default();

    let mut serial =
        XarBackend::new(xar_core::XarEngine::new(Arc::clone(&reg), EngineConfig::default()));
    let rs = run_simulation(&mut serial, &trips, &cfg);

    let backend =
        ShardedXarBackend::new(ShardedXarEngine::new(reg, EngineConfig::default(), 1));
    let rp = run_parallel_dispatch(&backend, &trips, &cfg, 1, DispatchSpec::First);

    assert_eq!(rs.booked, rp.booked);
    assert_eq!(rs.created, rp.created);
    assert_eq!(rs.unservable, rp.unservable);
    assert_eq!(rs.matches_returned, rp.matches_returned);
}
