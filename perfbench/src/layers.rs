//! Per-layer numbers of a traced run: the benchmark's own spans around
//! each engine call, plus the registry series the engine records while
//! inside a call (routing, snapshot publication, shard-lock hold).

use xar_obs::{HistogramSnapshot, Registry};
use xar_workload::percentile_ns;

use crate::stamp::{ClientLog, Kind};

/// Registry series of one or more replays, summed.
#[derive(Debug, Clone, Default)]
pub struct RegistryTotals {
    /// `engine.sp_ns`: one sample per shortest-path computation.
    pub sp: HistogramSnapshot,
    /// `engine.shortest_paths`.
    pub sp_calls: u64,
    /// Σ `engine.book_ns`.
    pub book_ns: u64,
    /// Σ `engine.create_ns`.
    pub create_ns: u64,
    /// `engine.snapshot_publish_ns`.
    pub publish: HistogramSnapshot,
    /// `engine.snapshot_publishes`.
    pub publishes: u64,
    /// `snapshot.partial_publishes`.
    pub partial_publishes: u64,
    /// `snapshot.dirty_clusters`.
    pub dirty: HistogramSnapshot,
    /// `engine.snapshot_backlog` at the end of the last replay.
    pub backlog: i64,
    /// `lock.write_hold_ns`, all shards.
    pub write_hold: HistogramSnapshot,
}

impl RegistryTotals {
    /// Read the series from one replay's registry.
    pub fn read(reg: &Registry) -> Self {
        Self {
            sp: reg.histogram("engine.sp_ns").snapshot(),
            sp_calls: reg.counter("engine.shortest_paths").get(),
            book_ns: reg.histogram("engine.book_ns").snapshot().sum,
            create_ns: reg.histogram("engine.create_ns").snapshot().sum,
            publish: reg.histogram("engine.snapshot_publish_ns").snapshot(),
            publishes: reg.counter("engine.snapshot_publishes").get(),
            partial_publishes: reg.counter("snapshot.partial_publishes").get(),
            dirty: reg.histogram("snapshot.dirty_clusters").snapshot(),
            backlog: reg.gauge("engine.snapshot_backlog").get(),
            write_hold: reg.histogram("lock.write_hold_ns").snapshot(),
        }
    }

    /// Add a later replay's series.
    pub fn add(&mut self, o: &Self) {
        self.sp = self.sp.merge(&o.sp);
        self.sp_calls += o.sp_calls;
        self.book_ns += o.book_ns;
        self.create_ns += o.create_ns;
        self.publish = self.publish.merge(&o.publish);
        self.publishes += o.publishes;
        self.partial_publishes += o.partial_publishes;
        self.dirty = self.dirty.merge(&o.dirty);
        self.backlog = o.backlog;
        self.write_hold = self.write_hold.merge(&o.write_hold);
    }
}

/// Engine-call spans of one or more replays, by kind.
#[derive(Debug, Clone, Default)]
pub struct SpanTotals {
    /// Search call durations, ns.
    pub search_ns: Vec<u64>,
    /// Candidates examined over all searches.
    pub candidates: u64,
    /// Matches returned over all searches.
    pub matches: u64,
    /// Book call durations, ns.
    pub book_ns: Vec<u64>,
    /// Book calls that failed.
    pub book_failed: u64,
    /// Create call durations, ns.
    pub create_ns: Vec<u64>,
    /// Track call durations, ns.
    pub track_ns: Vec<u64>,
    /// Time clients waited for each other before a request, ns.
    pub pace_ns: u64,
    /// Per request: root span duration minus its children's, ns.
    pub request_self_ns: Vec<u64>,
}

impl SpanTotals {
    /// Fold in every span of `logs`.
    pub fn add(&mut self, logs: &[ClientLog]) {
        for log in logs {
            // A client's spans are in call order and its requests never
            // overlap: each root is followed by exactly its children.
            let mut root: Option<(u64, u64)> = None; // (duration, children)
            for s in &log.spans {
                match s.kind {
                    Kind::Request => {
                        if let Some((dur, kids)) = root.take() {
                            self.request_self_ns.push(dur.saturating_sub(kids));
                        }
                        root = Some((s.dur_ns(), 0));
                        continue;
                    }
                    Kind::Search => {
                        self.search_ns.push(s.dur_ns());
                        self.candidates += u64::from(s.arg);
                        self.matches += u64::from(s.matches);
                    }
                    Kind::Book => {
                        self.book_ns.push(s.dur_ns());
                        self.book_failed += u64::from(s.arg);
                    }
                    Kind::Create => self.create_ns.push(s.dur_ns()),
                    Kind::Track => self.track_ns.push(s.dur_ns()),
                    Kind::Pace => self.pace_ns += s.dur_ns(),
                }
                if let Some((_, kids)) = root.as_mut() {
                    *kids += s.dur_ns();
                }
            }
            if let Some((dur, kids)) = root {
                self.request_self_ns.push(dur.saturating_sub(kids));
            }
        }
    }
}

fn sum(values: &[u64]) -> u64 {
    values.iter().sum()
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Inputs to the per-layer table besides spans and registry series.
pub struct LayerContext {
    /// Median `RegionIndex::build` time, s.
    pub region_build_s: f64,
    /// Median trip generation time, s.
    pub tripgen_s: f64,
    /// Walkable clusters per trip end-point.
    pub walkable_clusters_mean: f64,
    /// Traced replays the totals cover.
    pub replays: usize,
    /// `heap_bytes()` at the end of the last traced replay.
    pub heap_bytes: usize,
    /// Live rides at the end of the last traced replay.
    pub live_rides: usize,
    /// Decisions per second without spans.
    pub untraced_rps: f64,
    /// Decisions per second with spans recorded.
    pub traced_rps: f64,
}

/// The per-layer metrics, `(name, unit, value)`, in documentation order.
pub fn metrics(
    spans: &SpanTotals,
    reg: &RegistryTotals,
    ctx: &LayerContext,
) -> Vec<(&'static str, &'static str, f64)> {
    const US: f64 = 1e3;
    let replays = ctx.replays.max(1) as f64;
    let searches = spans.search_ns.len() as f64;
    let books = spans.book_ns.len() as f64;
    let creates = spans.create_ns.len() as f64;
    let tracks = spans.track_ns.len() as f64;
    let writes = books + creates;
    let write_call_ns = (sum(&spans.book_ns) + sum(&spans.create_ns)) as f64;
    let track_call_ns = sum(&spans.track_ns) as f64;
    let sp_ns = reg.sp.sum as f64;
    let hold_ns = reg.write_hold.sum as f64;
    let request_self_mean = ratio(
        sum(&spans.request_self_ns) as f64,
        spans.request_self_ns.len() as f64,
    );
    vec![
        ("discretize.region_build_s", "s", ctx.region_build_s),
        (
            "discretize.walkable_clusters_mean",
            "count",
            ctx.walkable_clusters_mean,
        ),
        ("workload.tripgen_s", "s", ctx.tripgen_s),
        (
            "workload.dispatch_self_us_mean",
            "us",
            request_self_mean / US,
        ),
        (
            "core.search_us_p50",
            "us",
            percentile_ns(&spans.search_ns, 50.0) / US,
        ),
        (
            "core.search_us_p99",
            "us",
            percentile_ns(&spans.search_ns, 99.0) / US,
        ),
        ("core.searches", "count", searches / replays),
        (
            "core.search_candidates_mean",
            "count",
            ratio(spans.candidates as f64, searches),
        ),
        (
            "core.search_yield",
            "ratio",
            ratio(spans.matches as f64, spans.candidates as f64),
        ),
        (
            "core.book_us_p50",
            "us",
            percentile_ns(&spans.book_ns, 50.0) / US,
        ),
        (
            "core.book_us_p99",
            "us",
            percentile_ns(&spans.book_ns, 99.0) / US,
        ),
        (
            "core.book_failed_share",
            "ratio",
            ratio(spans.book_failed as f64, books),
        ),
        (
            "core.create_us_p50",
            "us",
            percentile_ns(&spans.create_ns, 50.0) / US,
        ),
        (
            "core.create_us_p99",
            "us",
            percentile_ns(&spans.create_ns, 99.0) / US,
        ),
        (
            "core.write_self_us_mean",
            "us",
            ratio((reg.book_ns + reg.create_ns) as f64 - sp_ns, writes) / US,
        ),
        (
            "core.track_us_p50",
            "us",
            percentile_ns(&spans.track_ns, 50.0) / US,
        ),
        (
            "core.track_us_p99",
            "us",
            percentile_ns(&spans.track_ns, 99.0) / US,
        ),
        ("roadnet.sp_us_p50", "us", reg.sp.quantile(50.0) as f64 / US),
        ("roadnet.sp_us_p99", "us", reg.sp.quantile(99.0) as f64 / US),
        (
            "roadnet.sp_calls_per_write",
            "count",
            ratio(reg.sp_calls as f64, writes),
        ),
        ("roadnet.sp_share", "ratio", ratio(sp_ns, write_call_ns)),
        (
            "core.snapshot.publish_us_p50",
            "us",
            reg.publish.quantile(50.0) as f64 / US,
        ),
        (
            "core.snapshot.publish_us_p99",
            "us",
            reg.publish.quantile(99.0) as f64 / US,
        ),
        (
            "core.snapshot.publishes",
            "count",
            reg.publishes as f64 / replays,
        ),
        (
            "core.snapshot.full_share",
            "ratio",
            ratio(
                reg.publishes.saturating_sub(reg.partial_publishes) as f64,
                reg.publishes as f64,
            ),
        ),
        ("core.snapshot.dirty_clusters_mean", "count", reg.dirty.mean),
        (
            "core.snapshot.publish_share",
            "ratio",
            ratio(reg.publish.sum as f64, hold_ns),
        ),
        ("core.snapshot.backlog", "count", reg.backlog as f64),
        (
            "core.sharded.write_hold_us_p50",
            "us",
            reg.write_hold.quantile(50.0) as f64 / US,
        ),
        (
            "core.sharded.write_hold_us_p99",
            "us",
            reg.write_hold.quantile(99.0) as f64 / US,
        ),
        (
            "core.sharded.lock_wait_us_mean",
            "us",
            ratio(write_call_ns + track_call_ns - hold_ns, writes + tracks) / US,
        ),
        (
            "core.heap_mib",
            "MiB",
            ctx.heap_bytes as f64 / (1024.0 * 1024.0),
        ),
        ("core.live_rides", "count", ctx.live_rides as f64),
        (
            "bench.trace_overhead",
            "ratio",
            1.0 - ratio(ctx.traced_rps, ctx.untraced_rps),
        ),
    ]
}

/// Where engine-call time and write-lock hold go, for the run's notes:
/// `(search, book, create, track)` shares of engine-call time and
/// `(routing, publish)` shares of write-lock hold.
pub fn breakdown(spans: &SpanTotals, reg: &RegistryTotals) -> ([f64; 4], [f64; 2]) {
    let parts = [
        sum(&spans.search_ns) as f64,
        sum(&spans.book_ns) as f64,
        sum(&spans.create_ns) as f64,
        sum(&spans.track_ns) as f64,
    ];
    let total: f64 = parts.iter().sum();
    let hold = reg.write_hold.sum as f64;
    (
        parts.map(|p| ratio(p, total)),
        [
            ratio(reg.sp.sum as f64, hold),
            ratio(reg.publish.sum as f64, hold),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp::Span;

    fn span(req: u64, kind: Kind, start_ns: u64, end_ns: u64, arg: u32) -> Span {
        Span {
            req,
            kind,
            start_ns,
            end_ns,
            arg,
            matches: 0,
        }
    }

    #[test]
    fn self_time_is_the_root_minus_its_children() {
        let mut log = ClientLog::default();
        log.spans = vec![
            span(0, Kind::Request, 0, 100, 0),
            span(0, Kind::Track, 0, 10, 0),
            span(0, Kind::Search, 12, 30, 40),
            span(0, Kind::Book, 40, 70, 1),
            span(0, Kind::Book, 70, 90, 0),
            span(1, Kind::Request, 100, 150, 0),
            span(1, Kind::Search, 101, 120, 10),
            span(1, Kind::Create, 120, 149, 0),
        ];
        let mut t = SpanTotals::default();
        t.add(std::slice::from_ref(&log));
        assert_eq!(
            t.request_self_ns,
            vec![100 - (10 + 18 + 30 + 20), 50 - (19 + 29)]
        );
        assert_eq!((t.search_ns.len(), t.candidates), (2, 50));
        assert_eq!((t.book_ns.len(), t.book_failed), (2, 1));
        assert_eq!((t.create_ns, t.track_ns), (vec![29], vec![10]));
    }
}
