//! Property-based tests of the road-network substrate.

use proptest::prelude::*;
use xar_geo::GeoPoint;
use xar_roadnet::{
    CityConfig, CostMetric, Direction, NodeId, RoadClass, RoadGraph, RoadGraphBuilder, Route,
    ShortestPaths,
};

fn graph() -> &'static RoadGraph {
    use std::sync::OnceLock;
    static G: OnceLock<RoadGraph> = OnceLock::new();
    G.get_or_init(|| CityConfig::test_city(2718).generate())
}

/// The arcs a traversal may follow, as `(tail, head, cost)`.
fn arcs(g: &RoadGraph, metric: CostMetric, direction: Direction) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    for e in g.edges() {
        let cost = match metric {
            CostMetric::Distance => e.len_m,
            CostMetric::Time => e.travel_time_s(),
        };
        let (from, to) = (e.from.index(), e.to.index());
        if direction != Direction::Reverse {
            out.push((from, to, cost));
        }
        if direction != Direction::Forward {
            out.push((to, from, cost));
        }
    }
    out
}

/// Reference costs from `src` by Bellman–Ford over `arcs`: shares no
/// code with the search it checks.
fn bellman_ford(n: usize, arcs: &[(usize, usize, f64)], src: usize) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; n];
    dist[src] = 0.0;
    for _ in 0..n {
        for &(a, b, c) in arcs {
            if dist[a] + c < dist[b] {
                dist[b] = dist[a] + c;
            }
        }
    }
    dist
}

/// A small random road graph: nodes scattered over about 2 km, edges of
/// every road class, some with a length shorter than the crow flies.
fn random_graph() -> impl Strategy<Value = RoadGraph> {
    let nodes = proptest::collection::vec((0.0f64..0.02, 0.0f64..0.02), 2..10);
    let edges = proptest::collection::vec((0usize..10, 0usize..10, 0usize..4, 0.2f64..3.0, any::<bool>()), 0..30);
    (nodes, edges).prop_map(|(nodes, edges)| {
        let points: Vec<GeoPoint> =
            nodes.iter().map(|&(dlat, dlon)| GeoPoint::new(40.70 + dlat, -74.00 + dlon)).collect();
        let mut b = RoadGraphBuilder::new();
        for p in &points {
            b.add_node(*p);
        }
        let classes = [RoadClass::Highway, RoadClass::Avenue, RoadClass::Street, RoadClass::Lane];
        for (from, to, class, stretch, crow_length) in edges {
            let (from, to) = (from % points.len(), to % points.len());
            let crow = points[from].haversine_m(&points[to]);
            // `None` takes the crow-flies length, which must be positive.
            let len = (!crow_length || crow == 0.0).then(|| stretch * crow.max(1.0));
            b.add_edge(NodeId(from as u32), NodeId(to as u32), classes[class], len);
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// `path` and `cost` agree with a Bellman–Ford reference on every
    /// pair of nodes, reachable or not, in every direction and metric,
    /// and `path` returns a real path of the reported cost.
    #[test]
    fn path_and_cost_equal_a_reference(g in random_graph()) {
        let n = g.node_count();
        for metric in [CostMetric::Distance, CostMetric::Time] {
            for direction in [Direction::Forward, Direction::Reverse, Direction::Undirected] {
                let arcs = arcs(&g, metric, direction);
                let sp = ShortestPaths::new(&g, metric, direction);
                for src in 0..n {
                    let reference = bellman_ford(n, &arcs, src);
                    for (dst, &want) in reference.iter().enumerate() {
                        let ctx = format!("{metric:?} {direction:?} {src}->{dst}");
                        let (a, b) = (NodeId(src as u32), NodeId(dst as u32));
                        let (cost, path) = (sp.cost(a, b), sp.path(a, b));
                        if want.is_infinite() {
                            prop_assert!(cost.is_none() && path.is_none(), "{}: reached", ctx);
                            continue;
                        }
                        let cost = cost.expect("reachable");
                        prop_assert!((cost - want).abs() < 1e-6, "{}: {} vs {}", ctx, cost, want);
                        let path = path.expect("reachable");
                        prop_assert_eq!(path.nodes.first(), Some(&a));
                        prop_assert_eq!(path.nodes.last(), Some(&b));
                        let mut walked = 0.0;
                        for w in path.nodes.windows(2) {
                            let step = arcs
                                .iter()
                                .filter(|&&(x, y, _)| (x, y) == (w[0].index(), w[1].index()))
                                .map(|&(_, _, c)| c)
                                .fold(f64::INFINITY, f64::min);
                            prop_assert!(step.is_finite(), "{}: {:?} is not an arc", ctx, w);
                            walked += step;
                        }
                        let reported = match metric {
                            CostMetric::Distance => path.dist_m,
                            CostMetric::Time => path.time_s,
                        };
                        prop_assert!((walked - want).abs() < 1e-6, "{}: path costs {}", ctx, walked);
                        prop_assert!((reported - want).abs() < 1e-6, "{}: reports {}", ctx, reported);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Driving distance is a quasi-metric: non-negative, zero iff the
    /// endpoints coincide (on a strongly connected city), and satisfies
    /// the directed triangle inequality.
    #[test]
    fn driving_distance_is_a_quasi_metric(a in 0u32..380, b in 0u32..380, c in 0u32..380) {
        let g = graph();
        let n = g.node_count() as u32;
        let (a, b, c) = (NodeId(a % n), NodeId(b % n), NodeId(c % n));
        let sp = ShortestPaths::driving(g);
        let dab = sp.cost(a, b).expect("strongly connected");
        let dbc = sp.cost(b, c).expect("strongly connected");
        let dac = sp.cost(a, c).expect("strongly connected");
        prop_assert!(dab >= 0.0);
        prop_assert_eq!(dab == 0.0, a == b);
        prop_assert!(dac <= dab + dbc + 1e-6, "triangle violated: {} > {} + {}", dac, dab, dbc);
    }

    /// Walking (undirected) distance is symmetric and never exceeds the
    /// driving distance.
    #[test]
    fn walking_le_driving_and_symmetric(a in 0u32..380, b in 0u32..380) {
        let g = graph();
        let n = g.node_count() as u32;
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        let walk = ShortestPaths::walking(g);
        let drive = ShortestPaths::driving(g);
        let wab = walk.cost(a, b).expect("connected");
        let wba = walk.cost(b, a).expect("connected");
        prop_assert!((wab - wba).abs() < 1e-6, "walking asymmetric: {} vs {}", wab, wba);
        let dab = drive.cost(a, b).expect("connected");
        prop_assert!(wab <= dab + 1e-6, "walking {} beats driving {}", wab, dab);
    }

    /// Any shortest-path distance dominates the crow-flies distance.
    #[test]
    fn road_distance_dominates_haversine(a in 0u32..380, b in 0u32..380) {
        let g = graph();
        let n = g.node_count() as u32;
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        let sp = ShortestPaths::driving(g);
        let d = sp.cost(a, b).expect("connected");
        let crow = g.point(a).haversine_m(&g.point(b));
        prop_assert!(d >= crow - 1.0, "road {} < crow {}", d, crow);
    }

    /// `bounded_from` agrees exactly with full Dijkstra inside the
    /// bound and never reports nodes beyond it.
    #[test]
    fn bounded_matches_one_to_all(src in 0u32..380, bound in 100.0f64..2_500.0) {
        let g = graph();
        let n = g.node_count() as u32;
        let src = NodeId(src % n);
        let sp = ShortestPaths::driving(g);
        let all = sp.one_to_all(src);
        let bounded = sp.bounded_from(src, bound);
        let map: std::collections::HashMap<u32, f64> =
            bounded.iter().map(|&(n, d)| (n.0, d)).collect();
        for (node, &d) in all.iter().enumerate() {
            if d <= bound {
                let got = map.get(&(node as u32)).copied();
                prop_assert_eq!(got, Some(d), "node {} missing or wrong in bounded", node);
            } else {
                prop_assert!(!map.contains_key(&(node as u32)));
            }
        }
    }

    /// Splicing a route with the exact segment it already contains is
    /// the identity; splicing with a detour adds exactly the detour's
    /// extra length.
    #[test]
    fn splice_length_accounting(a in 0u32..380, b in 0u32..380, via in 0u32..380) {
        let g = graph();
        let n = g.node_count() as u32;
        let (a, b, via) = (NodeId(a % n), NodeId(b % n), NodeId(via % n));
        prop_assume!(a != b);
        let sp = ShortestPaths::driving(g);
        let base = Route::from_path_result(g, &sp.path(a, b).expect("connected")).unwrap();
        let last = base.len() - 1;

        // Identity splice over the full span.
        let same = base.splice(0, last, &base);
        prop_assert_eq!(&same, &base);

        // Detour splice: a -> via -> b over the full span.
        let leg1 = Route::from_path_result(g, &sp.path(a, via).expect("connected")).unwrap();
        let leg2 = Route::from_path_result(g, &sp.path(via, b).expect("connected")).unwrap();
        let detour = leg1.concat(&leg2);
        let spliced = base.splice(0, last, &detour);
        prop_assert!((spliced.dist_m() - detour.dist_m()).abs() < 1e-6);
        prop_assert!(spliced.dist_m() >= base.dist_m() - 1e-6, "splice shortened a shortest path");
        // Cumulative arrays stay monotone.
        for i in 1..spliced.len() {
            prop_assert!(spliced.dist_at(i) >= spliced.dist_at(i - 1));
            prop_assert!(spliced.time_at(i) >= spliced.time_at(i - 1));
        }
    }

    /// position_at_time is monotone along the route (points advance).
    #[test]
    fn route_position_monotone(a in 0u32..380, b in 0u32..380) {
        let g = graph();
        let n = g.node_count() as u32;
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        prop_assume!(a != b);
        let sp = ShortestPaths::driving_time(g);
        let route = Route::from_path_result(g, &sp.path(a, b).expect("connected")).unwrap();
        let total = route.duration_s();
        let mut prev_idx = 0usize;
        for step in 0..=10 {
            let t = total * step as f64 / 10.0;
            let idx = route.index_at_time(t);
            prop_assert!(idx >= prev_idx, "index went backwards");
            prev_idx = idx;
        }
        prop_assert_eq!(route.index_at_time(total + 1.0), route.len() - 1);
    }
}
