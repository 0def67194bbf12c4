//! The three workloads and their seeded set-up.
//!
//! Each workload is a closed loop: every client replays its round-robin
//! slice of one seeded trip stream and sends its next request only
//! after the previous decision. The engine under test only ever sees
//! the generated inputs; the seed picks the city, its points of
//! interest and the trips.

use std::sync::Arc;
use std::time::Instant;

use xar_core::{EngineConfig, ShardedXarEngine, DEFAULT_SHARDS};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, PoiConfig, RoadGraph};
use xar_workload::{generate_trips, SimConfig, Trip, TripGenConfig};

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A synthetic day from one client with tracking: the paper's
    /// §X.A.2 protocol end to end, dominated by writes.
    DayReplay,
    /// The same city and day from two clients with 49 extra looks per
    /// request (look-to-book ratio 50, Fig. 5b): the lock-free read path.
    LookToBook,
    /// A larger constant-density city with dense, length-capped trips
    /// and tight detour budgets, from two clients: routing, incremental
    /// snapshot publication and shard-lock contention.
    MetroWrite,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::DayReplay,
        Workload::LookToBook,
        Workload::MetroWrite,
    ];

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DayReplay => "day_replay",
            Workload::LookToBook => "look_to_book",
            Workload::MetroWrite => "metro_write",
        }
    }
}

/// Input sizes: the full benchmark, or a tiny variant for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// A few hundred trips on a small city — seconds, not minutes.
    Tiny,
}

/// Everything that defines one workload's inputs and load.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Blocks per side of the Manhattan lattice (100 m blocks).
    pub side: usize,
    /// Trip generator settings (the seed is filled in per run).
    pub trips: TripGenConfig,
    /// Rescale the day's request times linearly onto `[0, day_s]`
    /// seconds (`None` keeps the 24-hour day).
    pub day_s: Option<f64>,
    /// The §X.A.2 protocol settings every client replays with.
    pub sim: SimConfig,
    /// Closed-loop clients, before clamping to the host's cores.
    pub clients: usize,
    /// Shards of the engine under test.
    pub shards: usize,
}

impl Spec {
    /// The spec of `workload` at `size`.
    pub fn of(workload: Workload, size: Size) -> Self {
        let tiny = size == Size::Tiny;
        let day = TripGenConfig {
            count: if tiny { 400 } else { 10_000 },
            ..Default::default()
        };
        let base = Spec {
            side: if tiny { 24 } else { 70 },
            trips: day,
            day_s: None,
            sim: SimConfig::default(),
            clients: 1,
            shards: DEFAULT_SHARDS,
        };
        match workload {
            Workload::DayReplay => base,
            Workload::LookToBook => Spec {
                clients: 2,
                sim: SimConfig {
                    lookups_per_request: if tiny { 4 } else { 49 },
                    ..base.sim
                },
                ..base
            },
            // Constant density: 2.6x the standard city's area with the
            // same blocks, POIs per node and hotspots per km² (32 for
            // the standard city's 12), and the write micro-benchmark's
            // trip-length cap and detour budget. The day's requests
            // arrive within two hours, so the engine holds about two
            // thousand live rides at the peak and publishes take the
            // incremental path.
            Workload::MetroWrite => Spec {
                side: if tiny { 32 } else { 113 },
                trips: TripGenConfig {
                    count: if tiny { 800 } else { 20_000 },
                    hotspots: 32,
                    max_trip_m: 2_500.0,
                    ..Default::default()
                },
                day_s: Some(7_200.0),
                sim: SimConfig {
                    detour_limit_m: 1_200.0,
                    ..SimConfig::default()
                },
                clients: 2,
                ..base
            },
        }
    }
}

/// The inputs of one run, built from the seed.
pub struct Inputs {
    /// The discretized city.
    pub region: Arc<RegionIndex>,
    /// The time-sorted trip stream.
    pub trips: Vec<Trip>,
}

/// Wall time of one set-up, by stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// City, POIs, region index, trips and engine construction.
    pub total_s: f64,
    /// `RegionIndex::build` alone.
    pub region_build_s: f64,
    /// `generate_trips` alone.
    pub tripgen_s: f64,
}

/// Build the city, its region index and the trip stream from `seed`,
/// plus one engine (then dropped) so engine construction is part of
/// the set-up cost.
pub fn setup(spec: &Spec, seed: u64) -> (Inputs, SetupTimes) {
    let t0 = Instant::now();
    let graph: Arc<RoadGraph> =
        Arc::new(CityConfig::manhattan(spec.side, spec.side, seed).generate());
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: spec.side * spec.side / 2,
            seed: seed ^ 0x9015,
            ..Default::default()
        },
    );
    let t_region = Instant::now();
    let region = Arc::new(RegionIndex::build(
        Arc::clone(&graph),
        &pois,
        RegionConfig {
            landmark_separation_m: 220.0,
            cluster_goal: ClusterGoal::Delta(250.0),
            max_walk_m: 1_000.0,
            ..Default::default()
        },
    ));
    let region_build_s = t_region.elapsed().as_secs_f64();
    let t_trips = Instant::now();
    let trips = day(spec, &graph, seed, 0);
    let tripgen_s = t_trips.elapsed().as_secs_f64();
    drop(engine(&region, spec));
    let total_s = t0.elapsed().as_secs_f64();
    (
        Inputs { region, trips },
        SetupTimes {
            total_s,
            region_build_s,
            tripgen_s,
        },
    )
}

/// Day `day` of the trip stream of `seed`: every day has the same
/// generator settings and its own trips (day 0 is built at set-up).
pub fn day(spec: &Spec, graph: &RoadGraph, seed: u64, day: u64) -> Vec<Trip> {
    // Distinct days get distinct generator seeds; day 0 uses `seed`.
    let seed = seed ^ day.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut trips = generate_trips(
        graph,
        &TripGenConfig {
            seed,
            ..spec.trips.clone()
        },
    );
    if let Some(day_s) = spec.day_s {
        for t in &mut trips {
            t.pickup_s *= day_s / 86_400.0;
        }
    }
    trips
}

/// A fresh, empty engine under test.
pub fn engine(region: &Arc<RegionIndex>, spec: &Spec) -> ShardedXarEngine {
    ShardedXarEngine::new(Arc::clone(region), EngineConfig::default(), spec.shards)
}

/// Mean walkable clusters per trip end-point within the walk limit —
/// the search fan-out the discretization hands the core.
pub fn walkable_clusters_mean(inputs: &Inputs, walk_limit_m: f64) -> f64 {
    let region = &inputs.region;
    let total: usize = inputs
        .trips
        .iter()
        .flat_map(|t| [t.pickup, t.dropoff])
        .map(|p| region.walkable_within(region.snap(&p), walk_limit_m).len())
        .sum();
    total as f64 / (2 * inputs.trips.len()).max(1) as f64
}
