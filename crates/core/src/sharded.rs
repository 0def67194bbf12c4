//! Cluster-sharded concurrent engine.
//!
//! XAR's workload is ~480 searches per booking (§X.B.2). Behind one
//! global `RwLock<XarEngine>` a single writer would stall all readers,
//! and writes would serialize with each other even when they touched
//! rides on opposite sides of the city. [`ShardedXarEngine`] has no
//! global lock:
//!
//! * The ride state is split into `N` **shards**. A ride lives wholly
//!   in one shard — its record *and* every one of its potential-rides
//!   index entries — chosen by hashing the cluster of its pick-up
//!   point. Each shard is a complete [`XarEngine`] behind its own
//!   `RwLock`, so `create_ride` / `book` / `track_ride` lock exactly
//!   one shard and concurrent writes to different shards never contend.
//! * Immutable state (the road graph, the region discretization, the
//!   landmark and cluster-distance tables) is shared behind a plain
//!   `Arc` with no lock at all — searches resolve their walkable
//!   clusters before touching any shard.
//! * **Search takes no locks at all.** Each write path, while still
//!   holding its shard's write lock, freezes the shard's searchable
//!   state into an immutable [`ShardSnapshot`] and publishes it with an
//!   atomic pointer swap into the shard's [`SnapshotCell`]. Search
//!   derives its candidate cluster fan-out up front (the tier-1/2/3
//!   region tables need no lock), consults the lock-free
//!   [`ShardOccupancy`] bitmask to find which shards could hold
//!   candidates, pins the reclamation epoch once, and loads each such
//!   shard's current snapshot pointer — readers never block writers and
//!   writers never block readers (DESIGN.md §5f has the full protocol
//!   and the memory-reclamation argument). Because a ride's entries
//!   never span shards, per-shard candidate collection followed by one
//!   global sort is *equivalent* to the single-engine search: every
//!   candidate cluster is still examined, so the paper's approximation
//!   guarantee is untouched (DESIGN.md §5e).
//! * **`track_all`** becomes a per-shard sweep: each shard is locked
//!   (write) on its own, and empty shards are skipped after a cheap
//!   read-locked `ride_count` probe — the sweep never stops the world.
//!
//! Every lock acquisition records its **hold time** both into the
//! aggregate `lock.read_hold_ns` / `lock.write_hold_ns` histograms
//! (PR-1 names, preserved) and into a per-shard labeled series
//! `lock.read_hold_ns{shard="sK"}` / `lock.write_hold_ns{shard="sK"}`
//! (PR-3 label machinery), so shard imbalance is visible in `/metrics`
//! and `xar top` without a profiler. Since search stopped taking read
//! locks, `lock.read_hold_ns` records only maintenance reads (the
//! `track_all` emptiness probes, audits, memory accounting).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use xar_discretize::{ClusterId, RegionIndex};
use xar_obs::{Histogram, Registry};

use crate::booking::BookingOutcome;
use crate::engine::{EngineConfig, EngineStats, XarEngine};
use crate::error::{Reason, XarError};
use crate::metrics::EngineMetrics;
use crate::request::RideRequest;
use crate::ride::{Ride, RideId, RideOffer, RideStatus};
use crate::search::{sort_matches, RideMatch, SearchExplain};
use crate::snapshot::{self, ShardSnapshot, SnapshotCell};

/// Hard cap on the shard count: the occupancy bitmask is one `u64` per
/// cluster, and the per-shard label cardinality must stay far below the
/// registry's 64-series-per-family overflow cap.
pub const MAX_SHARDS: usize = 32;

/// Default shard count for deployments that do not tune it.
pub const DEFAULT_SHARDS: usize = 8;

/// Lock-free map from cluster to the set of shards holding at least one
/// potential-rides entry for it: one atomic `u64` bitmask per cluster.
///
/// Bit `s` of `masks[c]` is set iff shard `s`'s [`ClusterIndex`](crate::index::ClusterIndex)
/// (see `crate::index`) currently has a non-empty list for cluster `c`.
/// Each bit is only ever flipped by its own shard's writer *while
/// holding that shard's write lock*, so transitions are exact; readers
/// use relaxed loads — a search that races a create may miss the brand
/// new ride or probe a just-emptied shard, which is indistinguishable
/// from the operations serializing in the other order.
#[derive(Debug)]
pub struct ShardOccupancy {
    masks: Vec<AtomicU64>,
}

impl ShardOccupancy {
    /// An empty occupancy map over `cluster_count` clusters.
    pub fn new(cluster_count: usize) -> Self {
        Self { masks: (0..cluster_count).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Mark shard `shard` as holding entries for `cluster`.
    pub(crate) fn set(&self, cluster: usize, shard: u32) {
        self.masks[cluster].fetch_or(1 << shard, Ordering::Relaxed);
    }

    /// Mark shard `shard` as holding no entries for `cluster`.
    pub(crate) fn clear(&self, cluster: usize, shard: u32) {
        self.masks[cluster].fetch_and(!(1 << shard), Ordering::Relaxed);
    }

    /// The shard bitmask of one cluster.
    pub fn cluster_mask(&self, cluster: usize) -> u64 {
        self.masks[cluster].load(Ordering::Relaxed)
    }

    /// Union of the shard bitmasks of `clusters` — the shards a search
    /// with this cluster fan-out could find candidates in.
    pub fn mask_for(&self, clusters: impl IntoIterator<Item = usize>) -> u64 {
        clusters.into_iter().fold(0u64, |m, c| m | self.cluster_mask(c))
    }
}

/// One shard: a complete engine over its slice of the rides, the
/// lock-free search snapshot of that slice, plus the pre-resolved
/// labeled lock-hold histograms.
struct Shard {
    lock: RwLock<XarEngine>,
    /// The published, immutable view search reads (no lock). Republished
    /// by every write path while it still holds `lock` in write mode.
    snapshot: SnapshotCell,
    /// `XarEngine::state_version` as of the last publish — lets write
    /// paths that did not change searchable state (failed creates,
    /// no-progress tracks) skip the rebuild.
    published_version: AtomicU64,
    read_hold_ns: Arc<Histogram>,
    write_hold_ns: Arc<Histogram>,
}

/// Records a lock hold time into both the aggregate and the per-shard
/// labeled histogram when dropped.
struct HoldTimer {
    t0: Instant,
    aggregate: Arc<Histogram>,
    labeled: Arc<Histogram>,
}

impl HoldTimer {
    fn new(aggregate: Arc<Histogram>, labeled: Arc<Histogram>) -> Self {
        Self { t0: Instant::now(), aggregate, labeled }
    }
}

impl Drop for HoldTimer {
    fn drop(&mut self) {
        let ns = self.t0.elapsed().as_nanos() as u64;
        self.aggregate.record(ns);
        self.labeled.record(ns);
    }
}

struct Inner {
    region: Arc<RegionIndex>,
    shards: Vec<Shard>,
    occupancy: Arc<ShardOccupancy>,
    stats: EngineStats,
    metrics: EngineMetrics,
    read_hold_ns: Arc<Histogram>,
    write_hold_ns: Arc<Histogram>,
}

/// A clonable, thread-safe, cluster-sharded XAR engine (module docs
/// for the locking design).
///
/// ```
/// use std::sync::Arc;
/// use xar_core::{EngineConfig, RideOffer, RideRequest, ShardedXarEngine};
/// use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
/// use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig};
///
/// let graph = Arc::new(CityConfig::test_city(7).generate());
/// let pois = sample_pois(&graph, &PoiConfig { count: 300, ..Default::default() });
/// let region = Arc::new(RegionIndex::build(
///     Arc::clone(&graph),
///     &pois,
///     RegionConfig { cluster_goal: ClusterGoal::Delta(200.0), ..Default::default() },
/// ));
/// let engine = ShardedXarEngine::new(region, EngineConfig::default(), 4);
/// let n = graph.node_count() as u32;
/// let ride = engine
///     .create_ride(&RideOffer::simple(
///         graph.point(NodeId(0)),
///         graph.point(NodeId(n - 1)),
///         8.0 * 3600.0,
///         3,
///         2_500.0,
///     ))
///     .unwrap();
/// let matches = engine
///     .search(
///         &RideRequest {
///             source: graph.point(NodeId(n / 2)),
///             destination: graph.point(NodeId(n - 1)),
///             window_start_s: 7.5 * 3600.0,
///             window_end_s: 9.0 * 3600.0,
///             walk_limit_m: 800.0,
///         },
///         5,
///     )
///     .unwrap();
/// assert!(matches.iter().any(|m| m.ride == ride));
/// ```
#[derive(Clone)]
pub struct ShardedXarEngine {
    inner: Arc<Inner>,
}

impl ShardedXarEngine {
    /// A sharded engine over a pre-processed region with fresh metrics.
    pub fn new(region: Arc<RegionIndex>, config: EngineConfig, shards: usize) -> Self {
        Self::with_metrics(region, config, EngineMetrics::new(), shards)
    }

    /// A sharded engine recording into caller-supplied metrics. The
    /// shard count is clamped to `1..=`[`MAX_SHARDS`].
    pub fn with_metrics(
        region: Arc<RegionIndex>,
        config: EngineConfig,
        metrics: EngineMetrics,
        shards: usize,
    ) -> Self {
        let n = shards.clamp(1, MAX_SHARDS);
        let registry = metrics.registry();
        let occupancy = Arc::new(ShardOccupancy::new(region.cluster_count()));
        let shards = (0..n)
            .map(|i| {
                let mut engine = XarEngine::with_metrics(
                    Arc::clone(&region),
                    config.clone(),
                    EngineMetrics::with_registry(Arc::clone(&registry)),
                );
                engine.set_id_sequence(i as u64 + 1, n as u64);
                engine.track_dirty_rides();
                engine.attach_shard_occupancy(Arc::clone(&occupancy), i as u32);
                Self::make_shard(engine, i, &registry)
            })
            .collect();
        let stats = EngineStats::from_registry(&registry);
        let read_hold_ns = registry.histogram("lock.read_hold_ns");
        let write_hold_ns = registry.histogram("lock.write_hold_ns");
        Self {
            inner: Arc::new(Inner {
                region,
                shards,
                occupancy,
                stats,
                metrics,
                read_hold_ns,
                write_hold_ns,
            }),
        }
    }

    fn make_shard(engine: XarEngine, i: usize, registry: &Arc<Registry>) -> Shard {
        let label = format!("s{i}");
        // A fresh engine holds no rides and no entries: the empty
        // snapshot mirrors it, and every later write patches from there.
        let snapshot = SnapshotCell::new(ShardSnapshot::empty(engine.index().cluster_count()));
        let published_version = AtomicU64::new(engine.state_version());
        Shard {
            lock: RwLock::new(engine),
            snapshot,
            published_version,
            read_hold_ns: registry.histogram_with("lock.read_hold_ns", &[("shard", &label)]),
            write_hold_ns: registry.histogram_with("lock.write_hold_ns", &[("shard", &label)]),
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The region discretization the engine runs on (lock-free).
    #[inline]
    pub fn region(&self) -> &Arc<RegionIndex> {
        &self.inner.region
    }

    /// Shared operation counters (all shards record into these).
    #[inline]
    pub fn stats(&self) -> &EngineStats {
        &self.inner.stats
    }

    /// Shared latency / candidate-set telemetry.
    #[inline]
    pub fn metrics(&self) -> &EngineMetrics {
        &self.inner.metrics
    }

    /// The registry every shard and the sharding layer record into.
    pub fn registry(&self) -> Arc<Registry> {
        self.inner.metrics.registry()
    }

    /// The occupancy bitmask (exposed for tests and diagnostics).
    pub fn occupancy(&self) -> &Arc<ShardOccupancy> {
        &self.inner.occupancy
    }

    /// The shard owning cluster `c`: a Fibonacci hash of the cluster id
    /// so spatially adjacent clusters (consecutive ids) spread across
    /// shards instead of piling hotspots onto one lock.
    #[inline]
    pub fn shard_of_cluster(&self, c: ClusterId) -> usize {
        let h = (u64::from(c.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (h as usize) % self.inner.shards.len()
    }

    /// The shard owning ride `id`. Shard `i` hands out ids from the
    /// progression `i+1, i+1+n, …`, so the owner is recoverable from
    /// the id alone — booking never probes shards.
    #[inline]
    pub fn shard_of_ride(&self, id: RideId) -> usize {
        ((id.0.saturating_sub(1)) % self.inner.shards.len() as u64) as usize
    }

    fn read_shard(&self, i: usize) -> (RwLockReadGuard<'_, XarEngine>, HoldTimer) {
        let shard = &self.inner.shards[i];
        let guard = {
            let _acq = xar_obs::trace::span("lock.read_acquire");
            shard.lock.read().unwrap_or_else(|e| e.into_inner())
        };
        let hold = HoldTimer::new(
            Arc::clone(&self.inner.read_hold_ns),
            Arc::clone(&shard.read_hold_ns),
        );
        (guard, hold)
    }

    fn write_shard(&self, i: usize) -> (RwLockWriteGuard<'_, XarEngine>, HoldTimer) {
        let shard = &self.inner.shards[i];
        let guard = {
            let _acq = xar_obs::trace::span("lock.write_acquire");
            shard.lock.write().unwrap_or_else(|e| e.into_inner())
        };
        let hold = HoldTimer::new(
            Arc::clone(&self.inner.write_hold_ns),
            Arc::clone(&shard.write_hold_ns),
        );
        (guard, hold)
    }

    /// **Search** (operation O1) across shards: walkable-cluster
    /// fan-out from the lock-free region tables, occupancy-pruned
    /// lock-free snapshot reads, one global sort. Returns up to `limit`
    /// matches, least combined walking first — identical results to
    /// [`XarEngine::search`] over the union of the shards
    /// (property-tested in `tests/sharded_hammer` and
    /// `tests/snapshot_linearizable`).
    ///
    /// Allocates only the returned `Vec`; latency-critical callers
    /// reuse a buffer through [`ShardedXarEngine::search_into`].
    pub fn search(&self, req: &RideRequest, limit: usize) -> Result<Vec<RideMatch>, XarError> {
        let mut out = Vec::new();
        self.search_into(req, limit, &mut out)?;
        Ok(out)
    }

    /// [`ShardedXarEngine::search`] into a caller-owned buffer (cleared
    /// first). With a warmed buffer this path performs **zero heap
    /// allocations** (asserted by `tests/snapshot_alloc`): candidate
    /// scratch lives in a thread-local, snapshots are read in place,
    /// and the final sort is unstable (no merge buffer).
    ///
    /// It also takes **no locks**: each probed shard's published
    /// [`ShardSnapshot`] is loaded with one atomic read under an epoch
    /// pin, so concurrent writers are never waited on. The view is the
    /// serializable point-in-time state as of each shard's latest
    /// publish.
    pub fn search_into(
        &self,
        req: &RideRequest,
        limit: usize,
        out: &mut Vec<RideMatch>,
    ) -> Result<(), XarError> {
        let mut explain = SearchExplain::default();
        self.search_into_explained(req, limit, out, &mut explain)
    }

    /// [`ShardedXarEngine::search_into`], also filling `explain` with
    /// per-check rejection attribution accumulated across the probed
    /// shards. `explain` is a stack-only `Copy` struct, so this path
    /// keeps the zero-allocation and lock-free guarantees of
    /// `search_into`.
    pub fn search_into_explained(
        &self,
        req: &RideRequest,
        limit: usize,
        out: &mut Vec<RideMatch>,
        explain: &mut SearchExplain,
    ) -> Result<(), XarError> {
        out.clear();
        *explain = SearchExplain::default();
        let inner = &*self.inner;
        if let Err(e) = req.validate() {
            explain.hard = Some(e.reason());
            return Err(e);
        }
        inner.stats.searches.inc();
        let t0 = Instant::now();
        let _span = xar_obs::SpanTimer::new(Arc::clone(&inner.metrics.search_ns));
        let mut tspan = xar_obs::trace::span("search");
        let region = &inner.region;
        let src_node = region.snap(&req.source);
        let dst_node = region.snap(&req.destination);
        let src_walkable = region.walkable_within(src_node, req.walk_limit_m);
        let dst_walkable = region.walkable_within(dst_node, req.walk_limit_m);
        if src_walkable.is_empty() || dst_walkable.is_empty() {
            explain.hard = Some(Reason::NotServable);
            return Err(XarError::NotServable);
        }
        let tier = EngineMetrics::tier_index(src_walkable.len());
        explain.tier = tier as u8 + 1;
        let tier_hist = &inner.metrics.search_ns_tier[tier];

        // A shard can only contribute a match if it holds entries for at
        // least one source-side AND one destination-side cluster (the
        // candidate set is R1 ∩ R2, and a ride's entries never leave its
        // shard) — everything else is skipped without loading its
        // snapshot.
        let mask = inner.occupancy.mask_for(src_walkable.iter().map(|w| w.cluster.index()))
            & inner.occupancy.mask_for(dst_walkable.iter().map(|w| w.cluster.index()));

        let mut candidates = 0usize;
        {
            let guard = snapshot::pin();
            snapshot::with_scratch(|scratch| {
                for (i, shard) in inner.shards.iter().enumerate() {
                    if mask & (1u64 << i) == 0 {
                        continue;
                    }
                    let snap = shard.snapshot.load(&guard);
                    candidates += snap
                        .collect_matches(src_walkable, dst_walkable, req, scratch, out, explain);
                }
            });
        }
        inner.metrics.search_candidates.record(candidates as u64);
        tspan.attr("candidates", candidates);
        tspan.attr("shards", u64::from(mask.count_ones()));

        sort_matches(out);
        out.truncate(limit);
        tspan.attr("matches", out.len());
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        tier_hist.record(elapsed_ns);
        // Latency exemplar per tier: retain the trace ids behind the
        // slowest recent searches (atomics only — the warmed search
        // path stays allocation-free; skipped when tracing is off).
        if let Some(ctx) = xar_obs::trace::current_ctx() {
            inner.metrics.search_exemplar_tier[EngineMetrics::tier_index(src_walkable.len())]
                .offer(elapsed_ns, ctx.trace);
        }
        Ok(())
    }

    /// Publish shard `i`'s search snapshot if its engine's searchable
    /// state changed: drain the engine's dirty clusters and rides and
    /// patch the previous snapshot with them ([`ShardSnapshot::patch`] —
    /// unchanged segments and ride rows are `Arc`-shared by block, so
    /// the cost is proportional to the dirt, not the shard). This is the
    /// only way a snapshot follows engine state.
    ///
    /// Called by every write path while it still holds the shard write
    /// lock, so publishes serialize per shard and each snapshot is a
    /// consistent point-in-time view.
    fn publish_shard(&self, i: usize, engine: &mut XarEngine) {
        let shard = &self.inner.shards[i];
        let version = engine.state_version();
        // Ordering: all publishes of this shard happen under its write
        // lock (every caller holds it), so the load below can never
        // race a concurrent store to the same shard — the lock's
        // acquire/release already orders them. The explicit
        // Acquire/Release pairing makes the no-op-skip argument local
        // as well: a publisher that loads `published_version == version`
        // observes everything the publisher that stored that version
        // did before its store — including its snapshot swap and its
        // dirt drain — so an equal version always means "this exact
        // state is already published and the dirty set is empty", never
        // "a pending rebuild is still in flight". (With `Relaxed` the
        // conclusion would still hold via the lock, but would silently
        // break if a lock-free caller were ever added; regression test:
        // `noop_skip_never_hides_a_pending_rebuild`.)
        if shard.published_version.load(Ordering::Acquire) == version {
            return;
        }
        let t0 = Instant::now();
        let mut tspan = xar_obs::trace::span("snapshot.publish");
        tspan.attr("shard", i);
        let m = &self.inner.metrics;
        let (dirty, dirty_rides, compacted) = engine.drain_publish_dirt();
        let next = {
            // Pin only while reading the previous snapshot for the
            // patch; the guard must drop before `publish` below or our
            // own pin would keep the snapshot we retire from being
            // freed (inflating the backlog gauge for no reason).
            let guard = snapshot::pin();
            ShardSnapshot::patch(shard.snapshot.load(&guard), engine, &dirty, &dirty_rides)
        };
        let outcome = shard.snapshot.publish(next);
        shard.published_version.store(version, Ordering::Release);
        m.snapshot_publish_ns.record(t0.elapsed().as_nanos() as u64);
        m.snapshot_publishes.inc();
        m.snapshot_partial_publishes.inc();
        m.snapshot_dirty_clusters.record(dirty.len() as u64);
        m.snapshot_compacted_rides.add(compacted);
        m.snapshot_retired_freed.add(outcome.freed as u64);
        // Each publish retires exactly one snapshot and frees `freed`;
        // the gauge tracks the global not-yet-freed backlog.
        m.snapshot_backlog.add(1 - outcome.freed as i64);
    }

    /// **Create** (operation O2): one write lock on the shard owning
    /// the offer's pick-up cluster; publishes the shard's refreshed
    /// search snapshot before releasing it, so the new ride is
    /// immediately findable by lock-free searches.
    pub fn create_ride(&self, offer: &RideOffer) -> Result<RideId, XarError> {
        let region = &self.inner.region;
        let shard = region
            .cluster_of_node(region.snap_exact(&offer.source))
            .map_or(0, |c| self.shard_of_cluster(c));
        let (mut guard, _hold) = self.write_shard(shard);
        let res = guard.create_ride(offer);
        self.publish_shard(shard, &mut guard);
        res
    }

    /// **Book**: one write lock on the ride's owning shard (recovered
    /// from the id — no probing), then a snapshot republish so the
    /// consumed seat / reduced budget are visible to searches at once.
    pub fn book(&self, m: &RideMatch) -> Result<BookingOutcome, XarError> {
        let shard = self.shard_of_ride(m.ride);
        let (mut guard, _hold) = self.write_shard(shard);
        let res = guard.book(m);
        self.publish_shard(shard, &mut guard);
        res
    }

    /// **Book** with a commit-time feasibility re-check
    /// ([`XarEngine::validate_match`]): seats, progress *and* detour
    /// budget are re-validated against the live ride state under the
    /// owning shard's write lock, so the check and the booking are one
    /// atomic step — no other writer can invalidate the match between
    /// them. Matches come from a lock-free snapshot, so under
    /// concurrent writers they may have gone stale behind the
    /// searcher's back.
    pub fn book_checked(&self, m: &RideMatch) -> Result<BookingOutcome, XarError> {
        let shard = self.shard_of_ride(m.ride);
        let (mut guard, _hold) = self.write_shard(shard);
        let res = guard.book_checked(m);
        self.publish_shard(shard, &mut guard);
        res
    }

    /// **Track** one ride: one write lock on its owning shard, plus a
    /// snapshot republish when the track retired the ride or rewrote
    /// index entries (pure progress advances skip it).
    pub fn track_ride(&self, id: RideId, now_s: f64) -> Result<RideStatus, XarError> {
        let shard = self.shard_of_ride(id);
        let (mut guard, _hold) = self.write_shard(shard);
        let res = guard.track_ride(id, now_s);
        self.publish_shard(shard, &mut guard);
        res
    }

    /// **Track** every live ride to `now_s`: a per-shard sweep that
    /// write-locks one shard at a time — searches on other shards are
    /// never stalled. Shards with zero rides are skipped after a
    /// read-locked probe (no write lock taken at all). Returns the
    /// number of rides retired.
    pub fn track_all(&self, now_s: f64) -> usize {
        let mut retired = 0;
        for i in 0..self.inner.shards.len() {
            {
                let (guard, _hold) = self.read_shard(i);
                if guard.ride_count() == 0 {
                    continue;
                }
            }
            let (mut guard, _hold) = self.write_shard(i);
            retired += guard.track_all(now_s);
            self.publish_shard(i, &mut guard);
        }
        retired
    }

    /// Whether every shard's published snapshot holds exactly its live
    /// engine's searchable state ([`ShardSnapshot::mirrors`]) and its
    /// published version has caught up — the invariant that patching
    /// loses and invents nothing, checked against the live engine as an
    /// independent reference. Exposed for tests and audits. Takes each
    /// shard's read lock briefly.
    pub fn snapshots_consistent(&self) -> bool {
        let guard = snapshot::pin();
        (0..self.inner.shards.len()).all(|i| {
            let shard = &self.inner.shards[i];
            let (eng, _hold) = self.read_shard(i);
            shard.published_version.load(Ordering::Acquire) == eng.state_version()
                && shard.snapshot.load(&guard).mirrors(&eng)
        })
    }

    /// Total live rides across all shards.
    pub fn ride_count(&self) -> usize {
        (0..self.inner.shards.len())
            .map(|i| {
                let (guard, _hold) = self.read_shard(i);
                guard.ride_count()
            })
            .sum()
    }

    /// Run a read-only closure against one shard's engine (shared
    /// lock) — stats, inspection, tests.
    pub fn with_shard_read<R>(&self, shard: usize, f: impl FnOnce(&XarEngine) -> R) -> R {
        let (guard, _hold) = self.read_shard(shard);
        f(&guard)
    }

    /// Visit every live ride across all shards (shards read-locked one
    /// at a time) — audits and invariant checks.
    pub fn for_each_ride(&self, mut f: impl FnMut(&Ride)) {
        for i in 0..self.inner.shards.len() {
            let (guard, _hold) = self.read_shard(i);
            for ride in guard.rides() {
                f(ride);
            }
        }
    }

    /// Per-shard introspection — the `/debug/shards` payload. One JSON
    /// record per shard: live rides, engine state version vs. the
    /// version of the published search snapshot (a lag means a write
    /// path skipped the republish — by design only when nothing
    /// searchable changed), the retired-snapshot backlog awaiting
    /// epoch reclamation, and how many clusters the shard holds index
    /// entries for. Takes each shard's read lock briefly, one at a
    /// time.
    pub fn shard_debug_json(&self) -> String {
        let inner = &*self.inner;
        let cluster_count = inner.region.cluster_count();
        let mut w = xar_obs::json::JsonWriter::new();
        w.begin_object();
        w.key("shards");
        w.begin_array();
        for (i, shard) in inner.shards.iter().enumerate() {
            let (rides, state_version) = {
                let (guard, _hold) = self.read_shard(i);
                (guard.ride_count(), guard.state_version())
            };
            let published = shard.published_version.load(Ordering::Relaxed);
            let occupied = (0..cluster_count)
                .filter(|&c| inner.occupancy.cluster_mask(c) & (1u64 << i) != 0)
                .count();
            w.begin_object();
            w.key("shard");
            w.number_u64(i as u64);
            w.key("rides");
            w.number_u64(rides as u64);
            w.key("state_version");
            w.number_u64(state_version);
            w.key("published_version");
            w.number_u64(published);
            w.key("publish_lag");
            w.number_u64(state_version.saturating_sub(published));
            w.key("retired_backlog");
            w.number_u64(shard.snapshot.retired_len() as u64);
            w.key("occupied_clusters");
            w.number_u64(occupied as u64);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Total heap bytes: the shared region tables once, plus every
    /// shard's private runtime state (index + rides) and its published
    /// search snapshot.
    pub fn heap_bytes(&self) -> usize {
        let runtime: usize = (0..self.inner.shards.len())
            .map(|i| {
                let (guard, _hold) = self.read_shard(i);
                guard.heap_bytes_runtime()
            })
            .sum();
        let guard = snapshot::pin();
        let snapshots: usize =
            self.inner.shards.iter().map(|s| s.snapshot.load(&guard).heap_bytes()).sum();
        self.inner.region.heap_bytes() + runtime + snapshots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xar_discretize::{ClusterGoal, RegionConfig};
    use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph};

    fn region(seed: u64) -> Arc<RegionIndex> {
        let graph = Arc::new(CityConfig::test_city(seed).generate());
        let pois = sample_pois(&graph, &PoiConfig { count: 400, ..Default::default() });
        Arc::new(RegionIndex::build(
            graph,
            &pois,
            RegionConfig { cluster_goal: ClusterGoal::Delta(200.0), ..Default::default() },
        ))
    }

    fn offer(graph: &Arc<RoadGraph>, i: u32) -> RideOffer {
        let n = graph.node_count() as u32;
        RideOffer::simple(
            graph.point(NodeId((i * 37) % n)),
            graph.point(NodeId((i * 61 + n / 2) % n)),
            8.0 * 3600.0 + f64::from(i) * 60.0,
            3,
            3_000.0,
        )
    }

    #[test]
    fn ride_ids_are_unique_and_map_back_to_their_shard() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        let mut ids = Vec::new();
        for i in 0..40 {
            if let Ok(id) = eng.create_ride(&offer(&graph, i)) {
                ids.push(id);
            }
        }
        assert!(ids.len() > 10, "most creates must succeed");
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "ids globally unique across shards");
        // Every id's computed shard actually holds the ride.
        for id in &ids {
            let s = eng.shard_of_ride(*id);
            assert!(eng.with_shard_read(s, |e| e.ride(*id).is_some()), "ride {id:?} in shard {s}");
        }
        assert_eq!(eng.ride_count(), ids.len());
    }

    #[test]
    fn search_spans_shards_and_matches_are_bookable() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let n = graph.node_count() as u32;
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        for i in 0..30 {
            let _ = eng.create_ride(&offer(&graph, i));
        }
        let req = RideRequest {
            source: graph.point(NodeId(n / 2)),
            destination: graph.point(NodeId(n - 1)),
            window_start_s: 7.5 * 3600.0,
            window_end_s: 9.5 * 3600.0,
            walk_limit_m: 800.0,
        };
        let matches = eng.search(&req, usize::MAX).unwrap();
        assert!(!matches.is_empty(), "cross-town rides must be findable");
        // Matches come back globally sorted by combined walking.
        for w in matches.windows(2) {
            assert!(w[0].walk_total_m() <= w[1].walk_total_m() + 1e-9);
        }
        let booked = eng.book(&matches[0]).expect("best match books");
        assert_eq!(booked.ride, matches[0].ride);
        let s = eng.stats().snapshot();
        assert_eq!(s.bookings, 1);
        assert_eq!(s.searches, 1);
    }

    #[test]
    fn occupancy_prunes_empty_shards() {
        let region = region(31);
        let clusters = region.cluster_count();
        let graph = Arc::clone(region.graph());
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 8);
        // Empty engine: no cluster maps to any shard.
        assert_eq!(eng.occupancy().mask_for(0..clusters), 0);
        let id = eng.create_ride(&offer(&graph, 3)).unwrap();
        let mask = eng.occupancy().mask_for(0..clusters);
        assert_eq!(mask, 1 << eng.shard_of_ride(id), "exactly the owning shard is occupied");
        // Drive the ride to completion: occupancy drains back to zero.
        eng.track_all(f64::INFINITY);
        assert_eq!(eng.ride_count(), 0);
        assert_eq!(eng.occupancy().mask_for(0..clusters), 0);
    }

    #[test]
    fn track_all_skips_empty_shards_without_write_locks() {
        let region = region(31);
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        let writes_before = eng.registry().histogram("lock.write_hold_ns").count();
        assert_eq!(eng.track_all(9.0 * 3600.0), 0);
        let writes_after = eng.registry().histogram("lock.write_hold_ns").count();
        assert_eq!(writes_before, writes_after, "empty sweep must not take write locks");
    }

    #[test]
    fn per_shard_lock_series_are_labeled() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 2);
        let _ = eng.create_ride(&offer(&graph, 1));
        let json = eng.registry().snapshot_json();
        assert!(
            json.contains("lock.write_hold_ns{shard=\\\"s0\\\"}")
                || json.contains("lock.write_hold_ns{shard=\\\"s1\\\"}"),
            "{json}"
        );
    }

    #[test]
    fn search_takes_no_locks() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let n = graph.node_count() as u32;
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        for i in 0..30 {
            let _ = eng.create_ride(&offer(&graph, i));
        }
        let req = RideRequest {
            source: graph.point(NodeId(n / 2)),
            destination: graph.point(NodeId(n - 1)),
            window_start_s: 7.5 * 3600.0,
            window_end_s: 9.5 * 3600.0,
            walk_limit_m: 800.0,
        };
        let reads_before = eng.registry().histogram("lock.read_hold_ns").count();
        let mut found = 0usize;
        for _ in 0..50 {
            found += eng.search(&req, usize::MAX).unwrap().len();
        }
        assert!(found > 0, "searches must still find the rides");
        let reads_after = eng.registry().histogram("lock.read_hold_ns").count();
        assert_eq!(reads_before, reads_after, "search must not take read locks");
    }

    #[test]
    fn writes_are_immediately_visible_to_search() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let n = graph.node_count() as u32;
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        let req = RideRequest {
            source: graph.point(NodeId(n / 2)),
            destination: graph.point(NodeId(n - 1)),
            window_start_s: 7.5 * 3600.0,
            window_end_s: 9.5 * 3600.0,
            walk_limit_m: 800.0,
        };
        // Empty engine: nothing findable.
        assert!(matches!(eng.search(&req, usize::MAX), Ok(v) if v.is_empty())
            || matches!(eng.search(&req, usize::MAX), Err(XarError::NotServable)));
        for i in 0..30 {
            let _ = eng.create_ride(&offer(&graph, i));
        }
        // Creates published their snapshots: matches appear with no
        // intervening write.
        let matches = eng.search(&req, usize::MAX).unwrap();
        assert!(!matches.is_empty(), "created rides must be searchable immediately");
        // Booking a single-seat ride out makes it vanish from search.
        let single = RideOffer {
            seats: 1,
            ..offer(&graph, 77)
        };
        let id = eng.create_ride(&single).unwrap();
        let ms = eng.search(&req, usize::MAX).unwrap();
        if let Some(m) = ms.iter().find(|m| m.ride == id) {
            eng.book(m).unwrap();
            let after = eng.search(&req, usize::MAX).unwrap();
            assert!(
                after.iter().all(|m| m.ride != id),
                "a booked-out ride must leave the snapshot immediately"
            );
        }
        // Retiring everything drains search results.
        eng.track_all(f64::INFINITY);
        assert_eq!(eng.ride_count(), 0);
        let drained = eng.search(&req, usize::MAX).unwrap();
        assert!(drained.is_empty(), "retired rides must leave the snapshot");
    }

    #[test]
    fn snapshot_publishes_are_metered_and_gated_on_version() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        let _ = eng.create_ride(&offer(&graph, 1)).unwrap();
        let m = eng.metrics();
        let after_create = m.snapshot_publishes.get();
        assert!(after_create >= 1, "create must publish a snapshot");
        assert!(m.snapshot_publish_ns.count() >= 1);
        // A sweep that advances nothing (before departure) must not
        // republish: the state version is unchanged.
        eng.track_all(0.0);
        assert_eq!(m.snapshot_publishes.get(), after_create, "no-op track must skip publish");
    }

    #[test]
    fn search_into_reuses_the_buffer() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let n = graph.node_count() as u32;
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 2);
        for i in 0..20 {
            let _ = eng.create_ride(&offer(&graph, i));
        }
        let req = RideRequest {
            source: graph.point(NodeId(n / 2)),
            destination: graph.point(NodeId(n - 1)),
            window_start_s: 7.5 * 3600.0,
            window_end_s: 9.5 * 3600.0,
            walk_limit_m: 800.0,
        };
        let mut out = Vec::new();
        eng.search_into(&req, usize::MAX, &mut out).unwrap();
        let first: Vec<_> = out.clone();
        assert!(!first.is_empty(), "workload must produce matches");
        // Stale contents are cleared, results are identical run to run.
        out.push(first[0]);
        eng.search_into(&req, usize::MAX, &mut out).unwrap();
        assert_eq!(out, first);
        assert_eq!(eng.search(&req, usize::MAX).unwrap(), first);
    }

    #[test]
    fn noop_skip_never_hides_a_pending_rebuild() {
        // The `published_version` gate (Acquire/Release — see
        // `publish_shard`) may skip a publish only when the published
        // snapshot already reflects the engine state exactly. Interleave
        // real mutations with no-op sweeps and verify after every step
        // that the published snapshot mirrors the live engine — a
        // skipped-but-pending publish would diverge here.
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let n = graph.node_count() as u32;
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        for i in 0..25 {
            let _ = eng.create_ride(&offer(&graph, i));
            eng.track_all(0.0); // no-op: must skip, but skip must be sound
            assert!(eng.snapshots_consistent(), "after create {i} + no-op sweep");
        }
        let req = RideRequest {
            source: graph.point(NodeId(n / 2)),
            destination: graph.point(NodeId(n - 1)),
            window_start_s: 7.5 * 3600.0,
            window_end_s: 9.5 * 3600.0,
            walk_limit_m: 800.0,
        };
        for m in eng.search(&req, 5).unwrap() {
            let _ = eng.book_checked(&m);
            eng.track_all(0.0);
            assert!(eng.snapshots_consistent(), "after booking + no-op sweep");
        }
        eng.track_all(f64::INFINITY);
        assert!(eng.snapshots_consistent(), "after retiring everything");
    }

    #[test]
    fn incremental_publishes_are_partial_and_equivalent() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        let tight = |i: u32| RideOffer { detour_limit_m: 250.0, ..offer(&graph, i) };
        for i in 0..30 {
            let _ = eng.create_ride(&tight(i));
        }
        let m = eng.metrics();
        assert!(m.snapshot_publishes.get() > 0);
        assert_eq!(
            m.snapshot_partial_publishes.get(),
            m.snapshot_publishes.get(),
            "every publish patches the previous snapshot"
        );
        assert!(m.snapshot_dirty_clusters.count() >= m.snapshot_publishes.get());
        assert!(eng.snapshots_consistent());
    }

    #[test]
    fn mirrors_rejects_a_stale_snapshot_and_a_full_build_is_a_patch_from_empty() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let mut eng = XarEngine::new(Arc::clone(&region), EngineConfig::default());
        eng.track_dirty_rides();
        let empty = ShardSnapshot::empty(region.cluster_count());
        assert!(empty.mirrors(&eng));
        let ids: Vec<RideId> = (0..12).filter_map(|i| eng.create_ride(&offer(&graph, i)).ok()).collect();
        assert!(!empty.mirrors(&eng), "a snapshot missing every ride must not mirror");

        // Every cluster and ride dirty: the patch from empty is a full build.
        let all: Vec<u32> = (0..region.cluster_count() as u32).collect();
        let full = ShardSnapshot::patch(&empty, &eng, &all, &ids);
        assert!(full.mirrors(&eng));
        assert_eq!(full.ride_count(), ids.len());

        // Retire one ride: the old snapshot goes stale, the drained dirt
        // patches it back into step.
        let _ = eng.drain_publish_dirt();
        eng.track_ride(ids[0], f64::INFINITY).unwrap();
        assert!(!full.mirrors(&eng), "a snapshot holding a retired ride must not mirror");
        let (clusters, rides, _) = eng.drain_publish_dirt();
        assert_eq!(rides, vec![ids[0]]);
        let next = ShardSnapshot::patch(&full, &eng, &clusters, &rides);
        assert!(next.mirrors(&eng));
        assert_eq!(next.ride_count(), ids.len() - 1);
    }

    #[test]
    fn shard_count_is_clamped() {
        let region = region(31);
        let eng = ShardedXarEngine::new(Arc::clone(&region), EngineConfig::default(), 0);
        assert_eq!(eng.shard_count(), 1);
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 1_000);
        assert_eq!(eng.shard_count(), MAX_SHARDS);
    }
}
