//! Exact shortest paths over the road graph.
//!
//! XAR deliberately performs **no** shortest-path computation during
//! ride search (§VII); shortest paths are needed only (a) at
//! pre-processing time to build the discretization and the
//! inter-landmark distance tables, (b) when a ride offer is created, and
//! (c) when a booking is confirmed (at most 4 computations, §VIII.B).
//! The T-Share baseline, by contrast, calls these engines on its search
//! path — which is exactly the contrast the paper's Figure 4 measures.
//!
//! Three traversal directions are supported:
//!
//! * [`Direction::Forward`] — driving, respecting one-way streets;
//! * [`Direction::Reverse`] — driving *towards* a target (used for
//!   "distance of a grid *from* a landmark" style queries);
//! * [`Direction::Undirected`] — walking, which ignores one-way
//!   restrictions. This is why "the two \[driving and walking
//!   distances\] can sometimes be very different, especially in regions
//!   with narrow streets, or one-way etc." (§IV).
//!
//! Every query runs one search core over a per-thread workspace whose
//! labels are stamped with a query generation, so starting a query
//! costs O(1), not O(nodes). Point-to-point queries
//! ([`ShortestPaths::path`], [`ShortestPaths::cost`]) are A*: the
//! heuristic is `k · chord(v, dst)`, the straight-line distance through
//! the Earth between node positions times the largest `k` no edge of the
//! graph beats (`k · chord(e) ≤ cost(e)`, derived per metric when the
//! graph is built). The chord obeys the triangle inequality, so the
//! heuristic is consistent for any edge lengths and speeds — including
//! lengths shorter than the crow flies — and the search still stops
//! exactly when it settles `dst`. The bounded, multi-target and
//! one-to-all queries run the same core with no goal, i.e. Dijkstra.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;

use crate::graph::{chord_m, Edge, NodeId, RoadGraph};

/// Cached handles into the process-wide metric registry
/// ([`xar_obs::global`]): one latency histogram per traversal entry
/// point. `ShortestPaths` is a short-lived borrowed view constructed
/// ad hoc all over the workspace, so there is no natural owner to hang
/// a registry off — the global registry is the right home, and the
/// `OnceLock` caching keeps the per-call cost to an `Arc` clone.
mod sp_metrics {
    use std::sync::{Arc, OnceLock};
    use xar_obs::Histogram;

    macro_rules! cached {
        ($fn_name:ident, $metric:literal) => {
            pub(super) fn $fn_name() -> Arc<Histogram> {
                static H: OnceLock<Arc<Histogram>> = OnceLock::new();
                Arc::clone(H.get_or_init(|| xar_obs::global().histogram($metric)))
            }
        };
    }

    cached!(path_ns, "roadnet.sp_path_ns");
    cached!(bounded_ns, "roadnet.sp_bounded_ns");
    cached!(targets_ns, "roadnet.sp_targets_ns");
    cached!(one_to_all_ns, "roadnet.sp_one_to_all_ns");
}

/// Pedestrian speed used to convert walking distances to times: 1.4 m/s
/// (~5 km/h).
pub const WALK_SPEED_MPS: f64 = 1.4;

/// Which quantity edge traversal accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostMetric {
    /// Metres along the road.
    Distance,
    /// Seconds at free-flow speed.
    Time,
}

/// Which adjacency a traversal follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges tail → head (driving away from the source).
    Forward,
    /// Follow edges head → tail (driving towards the source).
    Reverse,
    /// Follow edges both ways (walking).
    Undirected,
}

/// A resolved shortest path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathResult {
    /// Node sequence from source to destination (inclusive).
    pub nodes: Vec<NodeId>,
    /// Total length in metres.
    pub dist_m: f64,
    /// Total free-flow driving time in seconds.
    pub time_s: f64,
}

/// Min-heap entry ordered by `key` (then node id, for determinism):
/// the node's cost when pushed plus its heuristic, which is 0 without a
/// goal.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    key: f64,
    node: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.node == other.node
    }
}
impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.node.cmp(&self.node))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A node's search state: `dist` and `prev` hold for the current query
/// only when `stamp` equals the workspace's generation; otherwise the
/// node is unreached. Interleaved, so one cache line serves a
/// relaxation's read and write.
#[derive(Debug, Clone, Copy)]
struct Label {
    dist: f64,
    prev: u32,
    stamp: u32,
}

const UNREACHED: Label = Label { dist: f64::INFINITY, prev: u32::MAX, stamp: 0 };

/// The search state of one query, reused by the next: starting a query
/// bumps the generation instead of clearing O(nodes) arrays.
#[derive(Debug, Default)]
struct Search {
    labels: Vec<Label>,
    generation: u32,
    heap: BinaryHeap<HeapEntry>,
}

impl Search {
    #[inline]
    fn dist(&self, v: usize) -> f64 {
        let l = self.labels[v];
        if l.stamp == self.generation {
            l.dist
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn set(&mut self, v: usize, dist: f64, prev: u32) {
        self.labels[v] = Label { dist, prev, stamp: self.generation };
    }
}

/// A thread's routing workspace: the search state plus the stamped
/// "wanted" marks of [`ShortestPaths::to_targets`] (a node is a pending
/// target when its mark equals the generation).
#[derive(Debug, Default)]
struct Workspace {
    search: Search,
    wanted: Vec<u32>,
}

impl Workspace {
    /// Start a query over a graph of `n` nodes: every node reads as
    /// unreached and unwanted, at O(1) cost unless `n` changed or the
    /// generation wrapped.
    fn begin(&mut self, n: usize) {
        let s = &mut self.search;
        if s.labels.len() != n {
            s.labels.resize(n, UNREACHED);
            self.wanted.resize(n, 0);
        }
        s.generation = s.generation.wrapping_add(1);
        if s.generation == 0 {
            s.labels.fill(UNREACHED);
            self.wanted.fill(0);
            s.generation = 1;
        }
        s.heap.clear();
    }
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// Run `f` on this thread's workspace, begun for a query over `n`
/// nodes. Not re-entrant: `f` must not start another query.
fn with_workspace<R>(n: usize, f: impl FnOnce(&mut Workspace) -> R) -> R {
    WORKSPACE.with(|ws| {
        let mut ws = ws.borrow_mut();
        ws.begin(n);
        f(&mut ws)
    })
}

/// Test hook: set this thread's generation counter, so a test can
/// force the wrap.
#[cfg(test)]
fn set_generation(generation: u32) {
    WORKSPACE.with(|ws| ws.borrow_mut().search.generation = generation);
}

/// A shortest-path engine bound to a graph, a cost metric, and a
/// traversal direction.
#[derive(Debug, Clone, Copy)]
pub struct ShortestPaths<'g> {
    graph: &'g RoadGraph,
    metric: CostMetric,
    direction: Direction,
}

impl<'g> ShortestPaths<'g> {
    /// Create an engine.
    pub fn new(graph: &'g RoadGraph, metric: CostMetric, direction: Direction) -> Self {
        Self { graph, metric, direction }
    }

    /// Convenience: driving distance engine (forward, metres).
    pub fn driving(graph: &'g RoadGraph) -> Self {
        Self::new(graph, CostMetric::Distance, Direction::Forward)
    }

    /// Convenience: driving time engine (forward, seconds).
    pub fn driving_time(graph: &'g RoadGraph) -> Self {
        Self::new(graph, CostMetric::Time, Direction::Forward)
    }

    /// Convenience: walking distance engine (undirected, metres).
    pub fn walking(graph: &'g RoadGraph) -> Self {
        Self::new(graph, CostMetric::Distance, Direction::Undirected)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g RoadGraph {
        self.graph
    }

    #[inline]
    fn edge_cost(&self, e: &Edge) -> f64 {
        match self.metric {
            CostMetric::Distance => e.len_m,
            CostMetric::Time => e.travel_time_s(),
        }
    }

    /// Expand `node`, calling `visit(neighbor, edge_cost)` for each
    /// neighbour under the configured direction.
    #[inline]
    fn for_each_neighbor(&self, node: NodeId, mut visit: impl FnMut(NodeId, f64)) {
        match self.direction {
            Direction::Forward => {
                for e in self.graph.out_edges(node) {
                    visit(e.to, self.edge_cost(e));
                }
            }
            Direction::Reverse => {
                for e in self.graph.in_edges(node) {
                    visit(e.from, self.edge_cost(e));
                }
            }
            Direction::Undirected => {
                for e in self.graph.out_edges(node) {
                    visit(e.to, self.edge_cost(e));
                }
                for e in self.graph.in_edges(node) {
                    visit(e.from, self.edge_cost(e));
                }
            }
        }
    }

    /// The one search loop every query runs: best-first from `src`,
    /// relaxing only to costs `≤ max_cost`, ordered by cost plus
    /// `heuristic` (A*; Dijkstra when it is 0). `settle(node, cost)`
    /// sees each node as it leaves the heap and stops the search by
    /// returning `Break`. A node whose cost later improves is reopened,
    /// so a heuristic that is only admissible still ends exact.
    fn run(
        &self,
        s: &mut Search,
        src: NodeId,
        max_cost: f64,
        heuristic: impl Fn(NodeId) -> f64,
        mut settle: impl FnMut(NodeId, f64) -> ControlFlow<()>,
    ) {
        s.set(src.index(), 0.0, u32::MAX);
        s.heap.push(HeapEntry { key: heuristic(src), node: src.0 });
        while let Some(HeapEntry { key, node }) = s.heap.pop() {
            // The entry pushed with the node's current cost has exactly
            // this key; a larger one is stale.
            let cost = s.dist(node as usize);
            if key > cost + heuristic(NodeId(node)) {
                continue;
            }
            if settle(NodeId(node), cost).is_break() {
                return;
            }
            self.for_each_neighbor(NodeId(node), |next, w| {
                let nd = cost + w;
                if nd <= max_cost && nd < s.dist(next.index()) {
                    s.set(next.index(), nd, node);
                    s.heap.push(HeapEntry { key: nd + heuristic(next), node: next.0 });
                }
            });
        }
    }

    /// A* from `src` to `dst`: the cost, with the predecessors of the
    /// path left in `s`. The heuristic `k · chord(v, dst)` is
    /// consistent because `k` bounds every edge's cost per metre of
    /// chord ([`RoadGraph`] derives it) and the chord obeys the
    /// triangle inequality, so popping `dst` ends the search exactly.
    fn towards(&self, s: &mut Search, src: NodeId, dst: NodeId) -> Option<f64> {
        let k = self.graph.cost_per_chord(self.metric);
        let goal = self.graph.xyz(dst);
        let mut found = None;
        self.run(
            s,
            src,
            f64::INFINITY,
            |v| k * chord_m(self.graph.xyz(v), goal),
            |v, cost| {
                if v == dst {
                    found = Some(cost);
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        found
    }

    /// Shortest path from `src` to `dst`; `None` if unreachable.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<PathResult> {
        let _span = xar_obs::SpanTimer::new(sp_metrics::path_ns());
        with_workspace(self.graph.node_count(), |ws| {
            self.towards(&mut ws.search, src, dst)?;
            Some(self.reconstruct(src, dst, &ws.search))
        })
    }

    /// Cost (in the configured metric) from `src` to `dst`; `None` if
    /// unreachable. Equals the cost of [`ShortestPaths::path`]'s path.
    pub fn cost(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        let _span = xar_obs::SpanTimer::new(sp_metrics::path_ns());
        with_workspace(self.graph.node_count(), |ws| self.towards(&mut ws.search, src, dst))
    }

    /// All nodes within `max_cost` of `src`, as `(node, cost)` pairs in
    /// non-decreasing cost order. The source itself is included with
    /// cost 0.
    pub fn bounded_from(&self, src: NodeId, max_cost: f64) -> Vec<(NodeId, f64)> {
        let _span = xar_obs::SpanTimer::new(sp_metrics::bounded_ns());
        let mut out = Vec::new();
        with_workspace(self.graph.node_count(), |ws| {
            self.run(&mut ws.search, src, max_cost, |_| 0.0, |v, cost| {
                out.push((v, cost));
                ControlFlow::Continue(())
            });
        });
        out
    }

    /// Costs from `src` to each of `targets`, stopping as soon as every
    /// target is settled or `max_cost` is exceeded. Unreachable (or
    /// beyond-bound) targets yield `None`.
    pub fn to_targets(
        &self,
        src: NodeId,
        targets: &[NodeId],
        max_cost: f64,
    ) -> Vec<Option<f64>> {
        let _span = xar_obs::SpanTimer::new(sp_metrics::targets_ns());
        with_workspace(self.graph.node_count(), |ws| {
            let Workspace { search, wanted } = ws;
            let generation = search.generation;
            let mut remaining = 0usize;
            for t in targets {
                if wanted[t.index()] != generation {
                    wanted[t.index()] = generation;
                    remaining += 1;
                }
            }
            self.run(search, src, max_cost, |_| 0.0, |v, _| {
                if wanted[v.index()] == generation {
                    wanted[v.index()] = 0;
                    remaining -= 1;
                    if remaining == 0 {
                        return ControlFlow::Break(());
                    }
                }
                ControlFlow::Continue(())
            });
            targets
                .iter()
                .map(|t| {
                    let d = search.dist(t.index());
                    (d <= max_cost).then_some(d)
                })
                .collect()
        })
    }

    /// Full single-source Dijkstra: cost to every node (`INFINITY` when
    /// unreachable).
    pub fn one_to_all(&self, src: NodeId) -> Vec<f64> {
        let _span = xar_obs::SpanTimer::new(sp_metrics::one_to_all_ns());
        let n = self.graph.node_count();
        with_workspace(n, |ws| {
            self.run(&mut ws.search, src, f64::INFINITY, |_| 0.0, |_, _| ControlFlow::Continue(()));
            (0..n).map(|v| ws.search.dist(v)).collect()
        })
    }

    /// Rebuild the node path from the search's predecessors,
    /// accumulating both distance and time.
    fn reconstruct(&self, src: NodeId, dst: NodeId, s: &Search) -> PathResult {
        let mut nodes = vec![dst];
        let mut cur = dst;
        while cur != src {
            let p = NodeId(s.labels[cur.index()].prev);
            nodes.push(p);
            cur = p;
        }
        nodes.reverse();
        let (mut dist_m, mut time_s) = (0.0, 0.0);
        for w in nodes.windows(2) {
            let (a, b) = (w[0], w[1]);
            // Find the cheapest connecting edge under the traversal
            // direction (paths from Undirected traversal may use an edge
            // in either orientation).
            let mut best: Option<&Edge> = None;
            let mut consider = |e: &'g Edge| {
                if best.is_none_or(|b| self.edge_cost(e) < self.edge_cost(b)) {
                    best = Some(e);
                }
            };
            match self.direction {
                Direction::Forward => {
                    for e in self.graph.out_edges(a) {
                        if e.to == b {
                            consider(e);
                        }
                    }
                }
                Direction::Reverse => {
                    for e in self.graph.in_edges(a) {
                        if e.from == b {
                            consider(e);
                        }
                    }
                }
                Direction::Undirected => {
                    for e in self.graph.out_edges(a) {
                        if e.to == b {
                            consider(e);
                        }
                    }
                    for e in self.graph.in_edges(a) {
                        if e.from == b {
                            consider(e);
                        }
                    }
                }
            }
            let e = best.expect("reconstructed path uses a real edge");
            dist_m += e.len_m;
            time_s += e.travel_time_s();
        }
        PathResult { nodes, dist_m, time_s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{RoadClass, RoadGraphBuilder};
    use xar_geo::GeoPoint;

    /// A 1 km-spaced 4x4 lattice, all two-way streets, except one
    /// one-way "avenue" shortcut.
    fn lattice() -> RoadGraph {
        let mut b = RoadGraphBuilder::new();
        let mut ids = vec![];
        for r in 0..4 {
            for c in 0..4 {
                ids.push(b.add_node(GeoPoint::new(40.70 + 0.009 * r as f64, -74.00 + 0.012 * c as f64)));
            }
        }
        let at = |r: usize, c: usize| ids[r * 4 + c];
        for r in 0..4 {
            for c in 0..4 {
                if c + 1 < 4 {
                    b.add_two_way(at(r, c), at(r, c + 1), RoadClass::Street, Some(1000.0));
                }
                if r + 1 < 4 {
                    b.add_two_way(at(r, c), at(r + 1, c), RoadClass::Street, Some(1000.0));
                }
            }
        }
        // One-way diagonal-ish shortcut 0 -> 5 (shorter than the 2km grid path).
        b.add_edge(at(0, 0), at(1, 1), RoadClass::Avenue, Some(1400.0));
        b.build()
    }

    #[test]
    fn straight_line_path() {
        let g = lattice();
        let sp = ShortestPaths::driving(&g);
        let p = sp.path(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.dist_m, 3000.0);
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn one_way_shortcut_used_forward_only() {
        let g = lattice();
        let sp = ShortestPaths::driving(&g);
        // 0 -> 5: shortcut 1400 beats grid 2000.
        assert_eq!(sp.cost(NodeId(0), NodeId(5)).unwrap(), 1400.0);
        // 5 -> 0: shortcut unusable, grid path 2000.
        assert_eq!(sp.cost(NodeId(5), NodeId(0)).unwrap(), 2000.0);
    }

    #[test]
    fn walking_ignores_one_way() {
        let g = lattice();
        let sp = ShortestPaths::walking(&g);
        assert_eq!(sp.cost(NodeId(5), NodeId(0)).unwrap(), 1400.0);
    }

    #[test]
    fn reverse_direction_swaps_endpoints() {
        let g = lattice();
        let fwd = ShortestPaths::driving(&g);
        let rev = ShortestPaths::new(&g, CostMetric::Distance, Direction::Reverse);
        assert_eq!(rev.cost(NodeId(5), NodeId(0)), fwd.cost(NodeId(0), NodeId(5)));
    }

    #[test]
    fn time_metric_prefers_fast_roads() {
        let g = lattice();
        let sp = ShortestPaths::driving_time(&g);
        let p = sp.path(NodeId(0), NodeId(5)).unwrap();
        // Avenue shortcut: 1400m at 11 m/s ≈ 127 s; grid: 2000m at 8 m/s = 250 s.
        assert!((p.time_s - 1400.0 / 11.0).abs() < 1e-9);
        assert_eq!(p.dist_m, 1400.0);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = RoadGraphBuilder::new();
        let a = b.add_node(GeoPoint::new(40.70, -74.00));
        let c = b.add_node(GeoPoint::new(40.71, -74.00));
        b.add_edge(a, c, RoadClass::Street, Some(10.0));
        let g = b.build();
        let sp = ShortestPaths::driving(&g);
        assert!(sp.path(c, a).is_none());
        assert!(sp.cost(c, a).is_none());
    }

    #[test]
    fn trivial_path_to_self() {
        let g = lattice();
        let sp = ShortestPaths::driving(&g);
        let p = sp.path(NodeId(7), NodeId(7)).unwrap();
        assert_eq!(p.dist_m, 0.0);
        assert_eq!(p.nodes, vec![NodeId(7)]);
    }

    #[test]
    fn bounded_from_respects_radius_and_order() {
        let g = lattice();
        let sp = ShortestPaths::driving(&g);
        let within = sp.bounded_from(NodeId(0), 2000.0);
        // Costs must be sorted non-decreasing and within bound.
        for w in within.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert!(within.iter().all(|&(_, c)| c <= 2000.0));
        assert!(within.iter().any(|&(n, _)| n == NodeId(0)));
        // Node 3 is 3000m away: excluded.
        assert!(!within.iter().any(|&(n, _)| n == NodeId(3)));
        // Node 5 via shortcut at 1400: included.
        assert!(within.iter().any(|&(n, c)| n == NodeId(5) && c == 1400.0));
    }

    #[test]
    fn to_targets_matches_individual_paths() {
        let g = lattice();
        let sp = ShortestPaths::driving(&g);
        let targets = [NodeId(3), NodeId(15), NodeId(5)];
        let got = sp.to_targets(NodeId(0), &targets, f64::INFINITY);
        for (t, g2) in targets.iter().zip(&got) {
            assert_eq!(*g2, sp.cost(NodeId(0), *t));
        }
    }

    #[test]
    fn to_targets_bound_excludes_far_nodes() {
        let g = lattice();
        let sp = ShortestPaths::driving(&g);
        let got = sp.to_targets(NodeId(0), &[NodeId(15)], 1000.0);
        assert_eq!(got, vec![None]);
    }

    #[test]
    fn to_targets_handles_duplicates() {
        let g = lattice();
        let sp = ShortestPaths::driving(&g);
        let got = sp.to_targets(NodeId(0), &[NodeId(1), NodeId(1)], f64::INFINITY);
        assert_eq!(got, vec![Some(1000.0), Some(1000.0)]);
    }

    #[test]
    fn one_to_all_agrees_with_path() {
        let g = lattice();
        let sp = ShortestPaths::driving(&g);
        let all = sp.one_to_all(NodeId(0));
        for dst in 0..16u32 {
            assert_eq!(Some(all[dst as usize]), sp.cost(NodeId(0), NodeId(dst)));
        }
    }

    /// Runs `f` on a thread of its own, whose routing workspace is new.
    fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(f).join().expect("query thread panicked"))
    }

    /// Point-to-point paths and bounded multi-target costs between a
    /// handful of nodes of `g`.
    fn answers(g: &RoadGraph) -> (Vec<Option<PathResult>>, Vec<Vec<Option<f64>>>) {
        let sp = ShortestPaths::driving(g);
        let n = g.node_count() as u32;
        let nodes: Vec<NodeId> = (0..6).map(|i| NodeId((i * 37 + 5) % n)).collect();
        let paths = nodes.iter().flat_map(|&a| nodes.iter().map(move |&b| sp.path(a, b))).collect();
        let costs = nodes.iter().map(|&a| sp.to_targets(a, &nodes, 2_500.0)).collect();
        (paths, costs)
    }

    #[test]
    fn alternating_graphs_of_different_sizes_share_one_workspace() {
        let small = lattice();
        let big = crate::CityConfig::manhattan(12, 12, 3).generate();
        assert!(big.node_count() > 4 * small.node_count());
        let want_small = on_fresh_thread(|| answers(&small));
        let want_big = on_fresh_thread(|| answers(&big));
        for _ in 0..3 {
            assert_eq!(answers(&small), want_small);
            assert_eq!(answers(&big), want_big);
        }
    }

    #[test]
    fn generation_wrap_clears_stale_labels() {
        let g = lattice();
        let sp = ShortestPaths::driving(&g);
        let want = on_fresh_thread(|| sp.path(NodeId(0), NodeId(15)));
        assert!(want.is_some());
        set_generation(0);
        // Generation 1 labels every node with its cost from node 15.
        sp.one_to_all(NodeId(15));
        // The next query wraps the counter and runs as generation 1
        // again, so node 15's labels would read as current (node 15
        // itself at cost 0) if the wrap did not clear them.
        set_generation(u32::MAX);
        assert_eq!(sp.path(NodeId(0), NodeId(15)), want);
    }
}
