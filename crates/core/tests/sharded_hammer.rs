//! Concurrency hammer + equivalence properties for the cluster-sharded
//! engine.
//!
//! * **Hammer**: 8 threads of mixed search/book against a
//!   [`ShardedXarEngine`] must never overbook a ride (seats booked ≤
//!   capacity) and must never lose an update (the shared `engine.bookings`
//!   counter equals the number of successful `book` calls observed by
//!   the threads).
//! * **Equivalence**: for arbitrary create/search/book/track sequences,
//!   the sharded engine returns the *same* matches as a serial
//!   [`XarEngine`] fed the identical inputs — the shard split is an
//!   implementation detail, invisible in results (this is what keeps
//!   the paper's approximation guarantee intact, DESIGN.md §5e).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use xar_core::{
    EngineConfig, RideId, RideMatch, RideOffer, RideRequest, ShardedXarEngine, XarEngine,
};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph};

/// One shared region per test binary: building it is the expensive part
/// and it is immutable (and shared lock-free by the sharded engine).
fn region() -> &'static Arc<RegionIndex> {
    use std::sync::OnceLock;
    static REGION: OnceLock<Arc<RegionIndex>> = OnceLock::new();
    REGION.get_or_init(|| {
        let graph = Arc::new(CityConfig::manhattan(25, 25, 4242).generate());
        let pois = sample_pois(&graph, &PoiConfig { count: 600, ..Default::default() });
        Arc::new(RegionIndex::build(
            graph,
            &pois,
            RegionConfig { cluster_goal: ClusterGoal::Delta(200.0), ..Default::default() },
        ))
    })
}

fn graph() -> &'static Arc<RoadGraph> {
    region().graph()
}

fn offer(i: u32, seats: u8) -> RideOffer {
    let g = graph();
    let n = g.node_count() as u32;
    RideOffer::simple(
        g.point(NodeId((i * 97) % n)),
        g.point(NodeId((i * 181 + n / 2) % n)),
        8.0 * 3600.0 + f64::from(i % 40) * 45.0,
        seats,
        3_500.0,
    )
}

fn request(i: u32) -> RideRequest {
    let g = graph();
    let n = g.node_count() as u32;
    RideRequest {
        source: g.point(NodeId((i * 53) % n)),
        destination: g.point(NodeId((i * 131 + n / 3) % n)),
        window_start_s: 7.5 * 3600.0,
        window_end_s: 10.0 * 3600.0,
        walk_limit_m: 900.0,
    }
}

/// 8 threads of mixed search/book: no overbooking, no lost updates.
#[test]
fn hammer_never_overbooks_and_loses_no_updates() {
    const THREADS: u32 = 8;
    const SEATS: u8 = 2;
    let eng = ShardedXarEngine::new(Arc::clone(region()), EngineConfig::default(), 4);
    let mut created = 0u32;
    for i in 0..48 {
        if eng.create_ride(&offer(i, SEATS)).is_ok() {
            created += 1;
        }
    }
    assert!(created >= 20, "seed must produce a populated engine, got {created}");

    // Every thread searches and books aggressively; successful books
    // are tallied on the side so the engine's counter can be audited
    // against ground truth.
    let booked_ok = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let eng = eng.clone();
            let booked_ok = &booked_ok;
            scope.spawn(move || {
                for j in 0..60u32 {
                    let req = request(t * 1_000 + j);
                    let Ok(matches) = eng.search(&req, 4) else { continue };
                    for m in &matches {
                        if eng.book(m).is_ok() {
                            booked_ok.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    // No overbooking: every ride's bookings + free seats equals its
    // offered capacity, and bookings never exceed it.
    let mut rides_seen = 0usize;
    eng.for_each_ride(|r| {
        rides_seen += 1;
        assert!(
            r.bookings.len() <= usize::from(SEATS),
            "ride {:?} overbooked: {} bookings on {SEATS} seats",
            r.id,
            r.bookings.len()
        );
        assert_eq!(
            r.bookings.len() + usize::from(r.seats_available),
            usize::from(SEATS),
            "ride {:?} seat accounting drifted",
            r.id
        );
    });
    assert_eq!(rides_seen, created as usize, "no rides lost or duplicated");

    // No lost updates: the shared counter saw exactly the successful
    // books, and search traffic was all counted.
    let s = eng.stats().snapshot();
    assert_eq!(s.bookings, booked_ok.load(Ordering::Relaxed));
    assert_eq!(s.searches, u64::from(THREADS) * 60);
    assert!(booked_ok.load(Ordering::Relaxed) > 0, "hammer must actually book");
}

/// 8 threads of create/book under concurrent expiry churn: ride
/// accounting must conserve (creates − retirements = live rides) and
/// the published snapshots must never serve an expired ride — once a
/// `track_all(now)` that saw a ride has returned (retirement + republish
/// complete), no later search may produce a match on it whose pickup
/// ETA lies behind `now`. A shared watermark, advanced only *after*
/// `track_all` returns, is each search's floor; the slack absorbs
/// entries inside a not-yet-crossed cluster (bounded by the cluster
/// traversal time, far below the 450 s period of the churn).
///
/// A ride only has to honour the watermarks of sweeps that began after
/// it was created. Its creator departs it `HEADROOM_S` ahead of the
/// watermark it read first, but a creator preempted across more than
/// one churn period can still insert the ride behind the newest
/// watermark, legitimately live. So each creation records that
/// watermark and the sweep under way once the create returned; a
/// match is held to the search's watermark when a later sweep installed
/// it, and otherwise to the lower of that and the ride's departure
/// floor. Matches are checked after the storm, when every creation's
/// record is in.
#[test]
fn booking_storm_with_expiry_churn_conserves_rides() {
    const THREADS: u32 = 8;
    const ROUNDS: u32 = 50;
    const SLACK_S: f64 = 300.0;
    const HEADROOM_S: f64 = 900.0;
    let eng = ShardedXarEngine::new(Arc::clone(region()), EngineConfig::default(), 4);
    let retired = AtomicU64::new(0);
    let booked = AtomicU64::new(0);
    // Times as f64 bits (non-negative, so the bit patterns order like
    // the floats). `watermark`: highest time the engine is *known*
    // tracked to, stored after `track_all` returns. `sweeping`: time of
    // the latest `track_all` begun, stored before it starts; a sweep
    // that begins after a create returned sees the created ride.
    let watermark = AtomicU64::new(0f64.to_bits());
    let sweeping = AtomicU64::new(0f64.to_bits());
    let load = |a: &AtomicU64| f64::from_bits(a.load(Ordering::SeqCst));

    // Per thread: (ride, watermark read before departing it, sweep
    // under way after creating it) and (ride, pickup ETA, the search's
    // watermark) for every match served.
    let per_thread = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let eng = eng.clone();
                let (retired, booked, watermark, sweeping) = (&retired, &booked, &watermark, &sweeping);
                scope.spawn(move || {
                    let (mut creations, mut served) = (Vec::new(), Vec::new());
                    for j in 0..ROUNDS {
                        let seed = t * 10_000 + j;
                        // Departures advance with the rounds AND stay
                        // ahead of the current watermark, so a ride
                        // created during an in-flight sweep departs
                        // ahead of the watermark that sweep installs.
                        let floor_now = load(watermark);
                        let depart = (8.0 * 3600.0 + f64::from(j) * 90.0).max(floor_now + HEADROOM_S)
                            + f64::from(t) * 7.0;
                        let g = graph();
                        let n = g.node_count() as u32;
                        let o = RideOffer::simple(
                            g.point(NodeId((seed * 97) % n)),
                            g.point(NodeId((seed * 181 + n / 2) % n)),
                            depart,
                            2,
                            3_500.0,
                        );
                        if let Ok(id) = eng.create_ride(&o) {
                            creations.push((id, floor_now, load(sweeping)));
                        }

                        let floor = load(watermark);
                        if let Ok(ms) = eng.search(&request(seed), 4) {
                            for m in &ms {
                                served.push((m.ride, m.eta_pickup_s, floor));
                                if eng.book(m).is_ok() {
                                    booked.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }

                        // One thread churns expiry.
                        if t == 0 && j % 5 == 4 {
                            let now = 8.0 * 3600.0 + f64::from(j) * 90.0;
                            sweeping.store(now.to_bits(), Ordering::SeqCst);
                            retired.fetch_add(eng.track_all(now) as u64, Ordering::Relaxed);
                            watermark.fetch_max(now.to_bits(), Ordering::SeqCst);
                        }
                    }
                    (creations, served)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("storm thread panicked")).collect::<Vec<_>>()
    });

    let created: HashMap<RideId, (f64, f64)> =
        per_thread.iter().flat_map(|(c, _)| c.iter().map(|&(id, read, sweep)| (id, (read, sweep)))).collect();
    let mut checked = 0usize;
    for &(ride, eta, watermark) in per_thread.iter().flat_map(|(_, s)| s) {
        let (read, sweep) = created[&ride];
        let floor = if watermark > sweep { watermark } else { watermark.min(read + HEADROOM_S) };
        assert!(
            eta >= floor - SLACK_S,
            "expired ride served: {ride:?} pickup ETA {eta:.0} s behind its {floor:.0} s floor \
             (search watermark {watermark:.0} s, creator read {read:.0} s, sweep {sweep:.0} s)",
        );
        checked += 1;
    }
    assert!(checked > 0, "storm must serve matches");

    // Conservation: every created ride is either still live or was
    // retired by the churn — none lost, none duplicated.
    let final_retired = retired.load(Ordering::Relaxed) + eng.track_all(12.0 * 3600.0) as u64;
    let mut live = 0u64;
    eng.for_each_ride(|_| live += 1);
    assert_eq!(
        created.len() as u64,
        final_retired + live,
        "ride conservation broke: {} created, {} retired, {} live",
        created.len(),
        final_retired,
        live
    );
    assert_eq!(live as usize, eng.ride_count());
    assert!(booked.load(Ordering::Relaxed) > 0, "storm must actually book");
    // The snapshots survived the storm coherent with shard state.
    assert!(eng.snapshots_consistent(), "published snapshots drifted from shard state");
}

/// Strip engine-assigned ride ids so result sets from engines with
/// different id sequences (serial: 1,2,3…; sharded: striped) compare
/// structurally. `ride_ord` maps each engine's id to the creation-order
/// index of the offer that produced it.
fn anonymize(ms: &[RideMatch], ride_ord: impl Fn(u64) -> usize) -> Vec<(usize, String)> {
    ms.iter()
        .map(|m| {
            (
                ride_ord(m.ride.0),
                format!(
                    "p{}.{} d{}.{} w{:.3}/{:.3} t{:.1}/{:.1} det{:.3} s{}/{}",
                    m.pickup_cluster.0,
                    m.pickup_landmark.0,
                    m.dropoff_cluster.0,
                    m.dropoff_landmark.0,
                    m.walk_pickup_m,
                    m.walk_dropoff_m,
                    m.eta_pickup_s,
                    m.eta_dropoff_s,
                    m.detour_est_m,
                    m.pickup_seg,
                    m.dropoff_seg
                ),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The sharded engine is observationally equivalent to the serial
    /// engine: same offers in, same matches out (sorted sets; the
    /// global least-walk order may interleave ties differently), same
    /// booking effects, same tracking retirements.
    #[test]
    fn sharded_equals_serial(
        offer_seeds in proptest::collection::vec(0u32..10_000, 4..24),
        search_seeds in proptest::collection::vec(0u32..10_000, 4..16),
        track_at_min in 480u16..660,
    ) {
        let mut serial = XarEngine::new(Arc::clone(region()), EngineConfig::default());
        let sharded = ShardedXarEngine::new(Arc::clone(region()), EngineConfig::default(), 4);

        // Same offers into both; remember each engine's id per offer.
        let mut serial_ids = std::collections::HashMap::new();
        let mut sharded_ids = std::collections::HashMap::new();
        for (ord, seed) in offer_seeds.iter().enumerate() {
            let o = offer(*seed, 2);
            let a = serial.create_ride(&o);
            let b = sharded.create_ride(&o);
            prop_assert_eq!(a.is_ok(), b.is_ok(), "create divergence on offer {}", ord);
            if let (Ok(a), Ok(b)) = (a, b) {
                serial_ids.insert(a.0, ord);
                sharded_ids.insert(b.0, ord);
            }
        }
        prop_assert_eq!(serial.ride_count(), sharded.ride_count());

        // Same searches out of both — full result sets, then book the
        // best match in both and require identical outcomes.
        for seed in &search_seeds {
            let req = request(*seed);
            let a = serial.search(&req, usize::MAX);
            let b = sharded.search(&req, usize::MAX);
            prop_assert_eq!(a.is_err(), b.is_err(), "search errs must agree");
            let (Ok(a), Ok(b)) = (a, b) else { continue };
            let mut an = anonymize(&a, |id| serial_ids[&id]);
            let mut bn = anonymize(&b, |id| sharded_ids[&id]);
            an.sort();
            bn.sort();
            prop_assert_eq!(an, bn, "match sets diverge for request {}", seed);
            // Book the serial engine's best match in both engines. The
            // two engines may order exact walk/detour ties differently
            // (the deterministic tiebreak is the ride id, and the id
            // sequences differ by design), so the sharded twin of the
            // ride is located by creation order rather than position.
            if let Some(ma) = a.first() {
                let ord = serial_ids[&ma.ride.0];
                let mb = b.iter().find(|m| sharded_ids[&m.ride.0] == ord);
                prop_assert!(mb.is_some(), "serial best ride missing from sharded results");
                let mb = mb.unwrap();
                let ra = serial.book(ma);
                let rb = sharded.book(mb);
                prop_assert_eq!(ra.is_ok(), rb.is_ok());
                if let (Ok(ra), Ok(rb)) = (ra, rb) {
                    prop_assert!((ra.actual_detour_m - rb.actual_detour_m).abs() < 1e-6);
                    prop_assert!((ra.walk_total_m - rb.walk_total_m).abs() < 1e-6);
                }
            }
        }

        // Tracking retires the same rides at the same time.
        let now = f64::from(track_at_min) * 60.0;
        prop_assert_eq!(serial.track_all(now), sharded.track_all(now));
        prop_assert_eq!(serial.ride_count(), sharded.ride_count());
    }
}
