//! Multi-threaded closed-loop simulation driver.
//!
//! The serial driver ([`crate::run_simulation`]) replays trips
//! from one thread — fine for measuring algorithmic latencies, useless
//! for measuring engine *scaling*. This module drives a shard-safe
//! backend from `N` closed-loop worker threads:
//!
//! * [`ConcurrentBackend`] is the `&self` twin of
//!   [`crate::sim::RideBackend`]: every operation takes a shared
//!   reference, so one backend instance serves all threads.
//!   [`ShardedXarBackend`] implements it over
//!   [`xar_core::ShardedXarEngine`].
//! * Trips are dealt **round-robin** (thread `t` replays trips
//!   `t, t+N, t+2N, …`), so each thread's private stream stays sorted
//!   by request time and the interleaving across threads approximates
//!   the serial arrival order — no thread runs ahead into "the future"
//!   by more than its stride.
//! * Each thread runs the §X.A.2 protocol (search; book best, falling
//!   through stale matches; else create) against the shared backend and
//!   accumulates a private [`SimReport`]; the partial reports are
//!   merged after the join. Outcome counters
//!   (`sim.requests{outcome=…}`, `sim.requests_total`) are recorded
//!   into the shared registry as the run progresses, so live dashboards
//!   see the parallel run exactly like a serial one.
//! * Thread 0 doubles as the **tracker**: it advances simulated time
//!   and runs the periodic tracking sweeps, mirroring a deployment
//!   where tracking is one background task competing with foreground
//!   request traffic.

use std::sync::Arc;

use xar_core::{Reason, RideMatch, SearchExplain, ShardedXarEngine};
use xar_obs::Registry;

use crate::dispatch::{run_simulation, Candidate, DispatchSpec};
use crate::report::SimReport;
use crate::sim::{offer_of, request_of, BookResult, RideBackend, SimConfig};
use crate::trips::Trip;

/// A ride-sharing system safe to drive from many threads at once: the
/// `&self` twin of [`crate::sim::RideBackend`].
pub trait ConcurrentBackend: Sync {
    /// An opaque match handle.
    type Match: Send;

    /// Search for rides serving `trip`; up to `k` matches, best first.
    fn search(&self, trip: &Trip, cfg: &SimConfig) -> Vec<Self::Match>;
    /// [`ConcurrentBackend::search`] with rejection attribution — see
    /// [`RideBackend::search_explained`]. The default wraps plain
    /// `search` with a synthetic explain (candidates = matches).
    fn search_explained(&self, trip: &Trip, cfg: &SimConfig) -> (Vec<Self::Match>, SearchExplain) {
        let matches = self.search(trip, cfg);
        let explain =
            SearchExplain { candidates: matches.len() as u32, ..SearchExplain::default() };
        (matches, explain)
    }
    /// Book a match; [`BookResult::Failed`] if it went stale.
    fn book(&self, m: &Self::Match, cfg: &SimConfig) -> BookResult;
    /// Book after re-validating the match's seats and detour budget
    /// against the live engine. The driver only calls `book`; this
    /// stays because the benchmark crate's backend implements it and
    /// calls [`ShardedXarBackend`]'s. Defaults to plain `book`.
    fn book_checked(&self, m: &Self::Match, cfg: &SimConfig) -> BookResult {
        self.book(m, cfg)
    }
    /// Reduce a match to the ride it books — see
    /// [`RideBackend::describe`].
    fn describe(_m: &Self::Match) -> Candidate {
        Candidate { ride: 0 }
    }
    /// Offer `trip` as a new ride; on failure, the typed [`Reason`]
    /// the request becomes unservable with.
    fn create(&self, trip: &Trip, cfg: &SimConfig) -> Result<(), Reason>;
    /// Advance the system clock (tracking sweep).
    fn track(&self, now_s: f64);
    /// The backend's metric registry, when it keeps one.
    fn registry(&self) -> Option<Arc<Registry>> {
        None
    }
    /// Short system name for reports.
    fn name(&self) -> &'static str {
        "backend"
    }
}

/// One worker thread's view of a shared [`ConcurrentBackend`],
/// adapting it to the `&mut self` [`RideBackend`] interface the
/// driver runs against. Carries the run's shared registry so every
/// worker records its `sim.*` series into the same snapshot even when
/// the backend keeps none of its own.
struct WorkerBackend<'a, B: ConcurrentBackend> {
    inner: &'a B,
    registry: Arc<Registry>,
}

impl<B: ConcurrentBackend> RideBackend for WorkerBackend<'_, B> {
    type Match = B::Match;

    fn search(&mut self, trip: &Trip, cfg: &SimConfig) -> Vec<B::Match> {
        self.inner.search(trip, cfg)
    }
    fn search_explained(&mut self, trip: &Trip, cfg: &SimConfig) -> (Vec<B::Match>, SearchExplain) {
        self.inner.search_explained(trip, cfg)
    }
    fn book(&mut self, m: &B::Match, cfg: &SimConfig) -> BookResult {
        self.inner.book(m, cfg)
    }
    fn describe(m: &B::Match) -> Candidate {
        B::describe(m)
    }
    fn create(&mut self, trip: &Trip, cfg: &SimConfig) -> Result<(), Reason> {
        self.inner.create(trip, cfg)
    }
    fn track(&mut self, now_s: f64) {
        self.inner.track(now_s);
    }
    fn registry(&self) -> Option<Arc<Registry>> {
        Some(Arc::clone(&self.registry))
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The sharded XAR engine under parallel simulation.
pub struct ShardedXarBackend {
    /// The engine (public so harnesses can audit rides and stats after
    /// a run).
    pub engine: ShardedXarEngine,
}

impl ShardedXarBackend {
    /// Wrap an engine.
    pub fn new(engine: ShardedXarEngine) -> Self {
        Self { engine }
    }
}

impl ConcurrentBackend for ShardedXarBackend {
    type Match = RideMatch;

    fn search(&self, trip: &Trip, cfg: &SimConfig) -> Vec<RideMatch> {
        self.engine.search(&request_of(trip, cfg), cfg.k).unwrap_or_default()
    }

    fn search_explained(&self, trip: &Trip, cfg: &SimConfig) -> (Vec<RideMatch>, SearchExplain) {
        let mut explain = SearchExplain::default();
        let mut out = Vec::new();
        if self
            .engine
            .search_into_explained(&request_of(trip, cfg), cfg.k, &mut out, &mut explain)
            .is_err()
        {
            out.clear();
        }
        (out, explain)
    }

    fn book(&self, m: &RideMatch, _cfg: &SimConfig) -> BookResult {
        crate::backend::book_result(self.engine.book(m))
    }

    fn book_checked(&self, m: &RideMatch, _cfg: &SimConfig) -> BookResult {
        crate::backend::book_result(self.engine.book_checked(m))
    }

    fn describe(m: &RideMatch) -> Candidate {
        Candidate { ride: m.ride.0 }
    }

    fn create(&self, trip: &Trip, cfg: &SimConfig) -> Result<(), Reason> {
        self.engine
            .create_ride(&offer_of(trip, cfg))
            .map(|_| ())
            .map_err(|e| e.reason())
    }

    fn track(&self, now_s: f64) {
        self.engine.track_all(now_s);
    }

    fn registry(&self) -> Option<Arc<Registry>> {
        Some(self.engine.registry())
    }

    fn name(&self) -> &'static str {
        "xar-sharded"
    }
}

/// Replay `trips` through `backend` from `threads` closed-loop workers
/// (clamped to ≥ 1) and return the merged report. Thread `t` replays
/// every `threads`-th trip starting at `t`; thread 0 additionally runs
/// the tracking sweeps at `cfg.track_every_s` intervals of simulated
/// time.
///
/// With `threads == 1` this is the serial §X.A.2 protocol driven
/// through the `&self` backend interface. `spec` names the policy;
/// first-match is the only one, and the argument stays because the
/// benchmark crate passes it.
pub fn run_parallel_dispatch<B: ConcurrentBackend>(
    backend: &B,
    trips: &[Trip],
    cfg: &SimConfig,
    threads: usize,
    spec: DispatchSpec,
) -> SimReport {
    let DispatchSpec::First = spec;
    let threads = threads.max(1);
    let registry = backend.registry().unwrap_or_else(|| Arc::new(Registry::new()));
    // Thread 0 doubles as the tracker; the rest never run sweeps.
    let untracked = SimConfig { track_every_s: None, ..cfg.clone() };
    let mut partials: Vec<SimReport> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let registry = Arc::clone(&registry);
                let cfg = if t == 0 { cfg } else { &untracked };
                scope.spawn(move || {
                    let slice: Vec<Trip> =
                        trips.iter().skip(t).step_by(threads).copied().collect();
                    let mut worker = WorkerBackend { inner: backend, registry };
                    run_simulation(&mut worker, &slice, cfg)
                })
            })
            .collect();
        for h in handles {
            // A worker panic is a test/bench failure; propagate it.
            partials.push(h.join().expect("simulation worker panicked"));
        }
    });
    let mut report = SimReport::default();
    for p in partials {
        report.merge(p);
    }
    report.registry = Some(registry);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trips::{generate_trips, TripGenConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A scripted thread-safe backend to validate driver mechanics
    /// without an engine.
    struct CountingBackend {
        searches: AtomicU64,
        creates: AtomicU64,
        tracks: AtomicU64,
    }

    impl ConcurrentBackend for CountingBackend {
        type Match = ();
        fn search(&self, _: &Trip, _: &SimConfig) -> Vec<()> {
            self.searches.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        }
        fn book(&self, _: &(), _: &SimConfig) -> BookResult {
            BookResult::Failed(Reason::StaleCommit)
        }
        fn create(&self, _: &Trip, _: &SimConfig) -> Result<(), Reason> {
            self.creates.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn track(&self, _: f64) {
            self.tracks.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn every_trip_is_replayed_exactly_once() {
        let g = xar_roadnet::CityConfig::test_city(9).generate();
        let trips = generate_trips(&g, &TripGenConfig { count: 101, ..Default::default() });
        let b = CountingBackend {
            searches: AtomicU64::new(0),
            creates: AtomicU64::new(0),
            tracks: AtomicU64::new(0),
        };
        let cfg = SimConfig { track_every_s: Some(600.0), ..Default::default() };
        let r = run_parallel_dispatch(&b, &trips, &cfg, 4, DispatchSpec::First);
        assert_eq!(b.searches.load(Ordering::Relaxed), 101);
        assert_eq!(b.creates.load(Ordering::Relaxed), 101);
        assert!(b.tracks.load(Ordering::Relaxed) > 0, "thread 0 must run sweeps");
        assert_eq!(r.looks, 101);
        assert_eq!(r.created, 101);
        assert_eq!(r.booked + r.created + r.unservable, 101);
        // Registry counters agree with the merged report.
        let reg = r.registry.as_ref().unwrap();
        assert_eq!(reg.counter("sim.requests_total").get(), 101);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let g = xar_roadnet::CityConfig::test_city(9).generate();
        let trips = generate_trips(&g, &TripGenConfig { count: 10, ..Default::default() });
        let b = CountingBackend {
            searches: AtomicU64::new(0),
            creates: AtomicU64::new(0),
            tracks: AtomicU64::new(0),
        };
        let cfg = SimConfig { track_every_s: None, ..Default::default() };
        let r = run_parallel_dispatch(&b, &trips, &cfg, 0, DispatchSpec::First);
        assert_eq!(r.looks, 10);
    }

    #[test]
    fn per_thread_slices_stay_time_sorted() {
        let g = xar_roadnet::CityConfig::test_city(11).generate();
        let trips = generate_trips(&g, &TripGenConfig { count: 40, ..Default::default() });
        for t in 0..4 {
            let slice: Vec<&Trip> = trips.iter().skip(t).step_by(4).collect();
            assert!(slice.windows(2).all(|w| w[0].pickup_s <= w[1].pickup_s));
        }
    }
}
