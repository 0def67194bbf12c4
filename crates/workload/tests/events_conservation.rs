//! End-to-end conservation of the wide-event plane: every request of
//! a dispatch run — serial or parallel — emits exactly one event, the
//! events reconcile with the run's `sim.requests{outcome}` /
//! `sim.reject_reason{reason=...}` counters, and **no** rejection
//! decodes to `Reason::Unknown` — the taxonomy is closed over every
//! real rejection path.
//!
//! All tests share the process-global event sink, so they serialize on
//! one mutex and live in one integration binary.

use std::sync::{Arc, Mutex};

use xar_core::{EngineConfig, Reason, ShardedXarEngine, XarEngine};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_obs::events;
use xar_roadnet::{sample_pois, CityConfig, PoiConfig};
use xar_workload::backend::{TShareBackend, XarBackend};
use xar_workload::report::SimReport;
use xar_workload::sim::SimConfig;
use xar_workload::trips::{generate_trips, TripGenConfig};
use xar_workload::{run_parallel_dispatch, run_simulation, DispatchSpec, ShardedXarBackend};
use xar_tshare::{TShareConfig, TShareEngine};

/// The process-global sink serializes the tests.
static GATE: Mutex<()> = Mutex::new(());

fn city(seed: u64) -> Arc<xar_roadnet::RoadGraph> {
    Arc::new(CityConfig::manhattan(22, 22, seed).generate())
}

fn region(graph: &Arc<xar_roadnet::RoadGraph>) -> Arc<RegionIndex> {
    let pois = sample_pois(graph, &PoiConfig { count: 600, ..Default::default() });
    Arc::new(RegionIndex::build(
        Arc::clone(graph),
        &pois,
        RegionConfig {
            landmark_separation_m: 220.0,
            cluster_goal: ClusterGoal::Delta(150.0),
            max_walk_m: 900.0,
            ..Default::default()
        },
    ))
}

/// Run `trips` through a fresh XAR engine with the event sink
/// capturing everything, and return (report, events snapshot). One
/// thread runs the serial driver on a single engine; more run the
/// parallel driver on a 4-shard engine.
fn run_with_events(
    seed: u64,
    trips: usize,
    cfg: &SimConfig,
    threads: usize,
) -> (SimReport, events::EventsSnapshot) {
    let graph = city(seed);
    let reg = region(&graph);
    let ts = generate_trips(&graph, &TripGenConfig { count: trips, ..Default::default() });
    events::configure(events::DEFAULT_CAPACITY);
    events::set_enabled(true);
    let report = if threads == 1 {
        let mut backend = XarBackend::new(XarEngine::new(reg, EngineConfig::default()));
        run_simulation(&mut backend, &ts, cfg)
    } else {
        let backend =
            ShardedXarBackend::new(ShardedXarEngine::new(reg, EngineConfig::default(), 4));
        run_parallel_dispatch(&backend, &ts, cfg, threads, DispatchSpec::First)
    };
    events::set_enabled(false);
    let snap = events::snapshot();
    (report, snap)
}

/// Events must reconcile *exactly* with the run's outcome counters:
/// one event per request, outcome histogram equal to the
/// `sim.requests{outcome}` counters, and
/// `booked + Σ reject_reason = total`.
fn assert_conserved(report: &SimReport, snap: &events::EventsSnapshot) {
    let total = report.booked + report.created + report.unservable;
    assert_eq!(snap.emitted, total, "one event per request");
    assert_eq!(snap.kept() + snap.dropped, snap.emitted, "drop accounting conserves");
    assert_eq!(snap.dropped, 0, "default capacity must hold the whole run");

    let count = |outcome: &str| {
        snap.events.iter().filter(|e| e.outcome == outcome).count() as u64
    };
    assert_eq!(count("booked"), report.booked);
    assert_eq!(count("created"), report.created);
    assert_eq!(count("unservable"), report.unservable);

    // Registry reconciliation: served + each rejection reason = total.
    let reg = report.registry.as_ref().expect("registry attached");
    assert_eq!(reg.counter("sim.requests_total").get(), total);
    let booked = reg.counter_with("sim.requests", &[("outcome", "booked")]).get();
    let rejected: u64 = Reason::ALL
        .iter()
        .map(|r| reg.counter_with("sim.reject_reason", &[("reason", r.code())]).get())
        .sum();
    assert_eq!(booked + rejected, total, "booked + Σ reject_reason must equal total");

    // Event-level reasons agree with the counters, reason by reason.
    for r in Reason::ALL {
        let ctr = reg.counter_with("sim.reject_reason", &[("reason", r.code())]).get();
        let evs = snap
            .events
            .iter()
            .filter(|e| e.outcome != "booked" && e.reason == r.code())
            .count() as u64;
        assert_eq!(evs, ctr, "reason {} disagrees between events and counters", r.code());
    }

    // The taxonomy is closed: no real rejection decodes to Unknown,
    // every event carries a reason, booked events say "served".
    for e in &snap.events {
        assert_ne!(e.reason, Reason::Unknown.code(), "request {} hit Unknown", e.request_id);
        assert!(!e.reason.is_empty(), "request {} has no reason", e.request_id);
        if e.outcome == "booked" {
            assert_eq!(e.reason, Reason::Served.code());
        }
    }
}

#[test]
fn first_match_run_conserves_and_never_says_unknown() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SimConfig { track_every_s: None, ..Default::default() };
    let (report, snap) = run_with_events(42, 500, &cfg, 1);
    assert!(report.booked > 0, "workload must produce shares");
    assert_conserved(&report, &snap);
}

/// Four workers emit into the one sink from their own threads; each
/// flushes its buffer when its replay ends, so the post-run snapshot
/// still holds exactly one event per request.
#[test]
fn parallel_run_conserves_and_never_says_unknown() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SimConfig { track_every_s: Some(600.0), ..Default::default() };
    let (report, snap) = run_with_events(43, 500, &cfg, 4);
    assert!(report.booked > 0, "workload must produce shares");
    assert_conserved(&report, &snap);
}

/// Property-style sweep (no external proptest dependency): randomized
/// hostile configurations — starved seats, tiny detour budgets, tight
/// walking limits, narrow windows, serial and parallel drivers — must
/// keep the taxonomy closed and the accounting conserved on every
/// run. These configs are chosen to excite *every* rejection family:
/// CapacityFull, DetourBudgetExceeded, WalkLimitExceeded,
/// NoClusterCandidates, stale paths.
#[test]
fn hostile_config_sweep_emits_zero_unknown() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // xorshift64* so the sweep is deterministic yet covers varied space.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        state
    };
    for round in 0..6u64 {
        let cfg = SimConfig {
            track_every_s: None,
            walk_limit_m: [60.0, 250.0, 800.0][(next() % 3) as usize],
            window_s: [90.0, 600.0, 1_200.0][(next() % 3) as usize],
            detour_limit_m: [150.0, 900.0, 4_000.0][(next() % 3) as usize],
            seats: [1, 2, 3][(next() % 3) as usize],
            ..Default::default()
        };
        let threads = if next() % 2 == 0 { 1 } else { 3 };
        let (report, snap) = run_with_events(100 + round, 250, &cfg, threads);
        assert_conserved(&report, &snap);
    }
}

/// The T-Share baseline rides the *default* `search_explained`, whose
/// synthetic explain must still close the taxonomy (a matchless search
/// decodes to `no_cluster_candidates`, a stale booking to its typed
/// reason).
#[test]
fn tshare_default_explain_stays_closed() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let graph = city(7);
    let ts = generate_trips(&graph, &TripGenConfig { count: 300, ..Default::default() });
    let mut backend = TShareBackend::new(TShareEngine::new(
        Arc::clone(&graph),
        TShareConfig { grid_cell_m: 400.0, ..Default::default() },
    ));
    let cfg = SimConfig { track_every_s: None, ..Default::default() };
    events::configure(events::DEFAULT_CAPACITY);
    events::set_enabled(true);
    let report = run_simulation(&mut backend, &ts, &cfg);
    events::set_enabled(false);
    let snap = events::snapshot();
    assert_conserved(&report, &snap);
}

/// The JSONL round trip survives a real run: serialize the snapshot,
/// parse it back, and the histograms reconcile with the outcome
/// counts (the `xar logs` contract, exercised library-side).
#[test]
fn jsonl_round_trip_reconciles_with_run() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SimConfig { track_every_s: None, ..Default::default() };
    let (report, snap) = run_with_events(55, 300, &cfg, 1);
    let text = events::to_jsonl(&snap);
    let log = events::parse_jsonl(&text).expect("run output must parse");
    assert_eq!(log.events.len() as u64, snap.kept());
    assert_eq!(log.emitted, snap.emitted);
    let outcomes = log.outcome_histogram();
    let get = |k: &str| outcomes.iter().find(|(o, _)| o == k).map_or(0, |(_, n)| *n);
    assert_eq!(get("booked"), report.booked);
    assert_eq!(get("created"), report.created);
    assert_eq!(get("unservable"), report.unservable);
    let reasons = log.reason_histogram();
    assert!(reasons.iter().all(|(r, _)| r != "unknown"));
    let rejected: u64 =
        reasons.iter().filter(|(r, _)| r != "served").map(|(_, n)| *n).sum();
    assert_eq!(rejected, report.created + report.unservable);
}
