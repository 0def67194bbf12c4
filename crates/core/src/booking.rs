//! Ride booking (§VIII.B).
//!
//! When a rider confirms a match, new via-points are created at the
//! pick-up and drop-off landmarks, the route is updated with freshly
//! computed shortest paths (at most 4 — "since it is done in the
//! back-end after the booking is confirmed, it does not affect the user
//! experience"), the detour budget and seat count are decremented, and
//! the pass-through / reachable clusters of the ride are recomputed —
//! "such an update may render some of the earlier pass through and
//! reachable clusters invalid".

use xar_roadnet::{NodeId, Route, ShortestPaths};

use crate::engine::XarEngine;
use crate::error::XarError;
use crate::ride::{Booking, RideStatus, ViaPoint};
use crate::search::RideMatch;

/// The result of a confirmed booking — including the realised detour,
/// which the quality experiment (Figure 3a) compares against the
/// search-time estimate and the ε guarantee.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BookingOutcome {
    /// The ride booked.
    pub ride: crate::ride::RideId,
    /// Extra distance the route actually grew by, metres.
    pub actual_detour_m: f64,
    /// The search-time estimate for the same quantity, metres.
    pub estimated_detour_m: f64,
    /// Total walking the rider incurs, metres.
    pub walk_total_m: f64,
    /// Scheduled pick-up time, absolute seconds.
    pub pickup_eta_s: f64,
    /// Scheduled drop-off time, absolute seconds.
    pub dropoff_eta_s: f64,
    /// Shortest-path computations this booking performed (≤ 4).
    pub shortest_paths: usize,
    /// The ride's remaining detour budget *before* this booking,
    /// metres. `actual_detour_m - detour_budget_before_m` (when
    /// positive) is the "detour limit exceeded by" quantity whose ε
    /// bound Figure 3a evaluates.
    pub detour_budget_before_m: f64,
}

impl XarEngine {
    /// Re-run the search-time feasibility checks for `m` against the
    /// *current* ride state, without mutating anything: the ride must
    /// still exist and be active, have a free seat, not have driven
    /// past the pick-up segment, and still hold enough detour budget
    /// for the match's estimate. Returns the first violated condition.
    ///
    /// [`XarEngine::book`] performs the first three checks itself; the
    /// detour-budget check is *stricter* than booking (which honours
    /// the ε overshoot of an estimate made when the budget still
    /// covered it — see Figure 3a). Call it at commit time when the
    /// match may predate other bookings that consumed the budget in
    /// between, e.g. a match read from a lock-free snapshot while other
    /// threads write.
    pub fn validate_match(&self, m: &RideMatch) -> Result<(), XarError> {
        let ride = self.ride(m.ride).ok_or(XarError::UnknownRide(m.ride))?;
        if ride.status != RideStatus::Active {
            return Err(XarError::UnknownRide(m.ride));
        }
        if ride.seats_available == 0 {
            return Err(XarError::NoSeats(m.ride));
        }
        let n_seg = ride.via_points.len() - 1;
        let (pickup_seg, dropoff_seg) =
            (m.pickup_seg.min(n_seg - 1), m.dropoff_seg.min(n_seg - 1));
        if pickup_seg > dropoff_seg {
            return Err(XarError::InvalidRequest("pick-up segment after drop-off segment"));
        }
        if ride.progress_idx > ride.via_points[pickup_seg + 1].route_idx {
            return Err(XarError::AlreadyPassed(m.ride));
        }
        let remaining = ride.detour_remaining_m();
        if m.detour_est_m > remaining {
            return Err(XarError::DetourExceeded {
                ride: m.ride,
                needed_m: m.detour_est_m,
                remaining_m: remaining,
            });
        }
        Ok(())
    }

    /// **Book** with a speculative-feasibility re-check first
    /// ([`XarEngine::validate_match`]): the match is rejected — before
    /// any route work — when the ride state it was searched against no
    /// longer holds, including the case booking itself would honour
    /// where the remaining detour budget has shrunk below the
    /// estimate.
    pub fn book_checked(&mut self, m: &RideMatch) -> Result<BookingOutcome, XarError> {
        self.validate_match(m)?;
        self.book(m)
    }

    /// **Book** a match previously returned by [`XarEngine::search`].
    ///
    /// Fails if the ride is gone, full, has driven past the pick-up
    /// point, or no longer has the detour budget for the realised
    /// route change.
    pub fn book(&mut self, m: &RideMatch) -> Result<BookingOutcome, XarError> {
        let t0 = std::time::Instant::now();
        let _span = xar_obs::SpanTimer::new(std::sync::Arc::clone(&self.metrics.book_ns));
        let mut tspan = xar_obs::trace::span("book");
        let region = std::sync::Arc::clone(self.region());
        let pickup_node = region.landmark(m.pickup_landmark).node;
        let dropoff_node = region.landmark(m.dropoff_landmark).node;

        let ride = self.ride(m.ride).ok_or(XarError::UnknownRide(m.ride))?;
        if ride.status != RideStatus::Active {
            return Err(XarError::UnknownRide(m.ride));
        }
        if ride.seats_available == 0 {
            return Err(XarError::NoSeats(m.ride));
        }
        let n_seg = ride.via_points.len() - 1;
        let (pickup_seg, dropoff_seg) = (m.pickup_seg.min(n_seg - 1), m.dropoff_seg.min(n_seg - 1));
        if pickup_seg > dropoff_seg {
            return Err(XarError::InvalidRequest("pick-up segment after drop-off segment"));
        }
        // The ride must not have passed the pick-up segment's start.
        if ride.progress_idx > ride.via_points[pickup_seg + 1].route_idx {
            return Err(XarError::AlreadyPassed(m.ride));
        }

        let old_len = ride.route.dist_m();
        let budget_before = ride.detour_remaining_m();
        let sp = ShortestPaths::driving(region.graph());
        let graph = region.graph();
        let mut sp_count = 0usize;
        let sp_ns = std::sync::Arc::clone(&self.metrics.sp_ns);
        let mut path_route = |a: NodeId, b: NodeId| -> Result<Route, XarError> {
            sp_count += 1;
            let p = {
                let _sp_span = xar_obs::SpanTimer::new(std::sync::Arc::clone(&sp_ns));
                let _sp_trace = xar_obs::trace::span("shortest_path");
                sp.path(a, b)
            }
            .ok_or(XarError::NoRoute)?;
            Route::from_path_result(graph, &p).ok_or(XarError::NoRoute)
        };

        // Build the new route, the way-point indices of the two new
        // via-points, and the exactly recomputed indices of the old
        // via-points (splices shift everything downstream of them).
        let (new_route, pickup_idx, dropoff_idx);
        let mut vps: Vec<ViaPoint>;
        if pickup_seg == dropoff_seg {
            // §VIII.B Step 2: both on one segment — SP(s1, src),
            // SP(src, dest), SP(dest, s2).
            let s1 = ride.via_points[pickup_seg];
            let s2 = ride.via_points[pickup_seg + 1];
            let leg1 = path_route(s1.node, pickup_node)?;
            let leg2 = path_route(pickup_node, dropoff_node)?;
            let leg3 = path_route(dropoff_node, s2.node)?;
            pickup_idx = s1.route_idx + leg1.len() - 1;
            dropoff_idx = pickup_idx + leg2.len() - 1;
            let replacement = leg1.concat(&leg2).concat(&leg3);
            new_route = ride.route.splice(s1.route_idx, s2.route_idx, &replacement);
            let delta = new_route.len() as isize - ride.route.len() as isize;
            // Shift by list position, not by route-index comparison:
            // consecutive via-points may share a route_idx (a booking
            // whose pick-up landed exactly on a via node leaves a
            // zero-length segment), and comparing indices would drag
            // the splice's start point along with its end.
            vps = ride
                .via_points
                .iter()
                .enumerate()
                .map(|(pos, v)| {
                    if pos > pickup_seg {
                        ViaPoint { route_idx: (v.route_idx as isize + delta) as usize, node: v.node }
                    } else {
                        *v
                    }
                })
                .collect();
            vps.insert(pickup_seg + 1, ViaPoint { route_idx: pickup_idx, node: pickup_node });
            vps.insert(pickup_seg + 2, ViaPoint { route_idx: dropoff_idx, node: dropoff_node });
        } else {
            // §VIII.B Step 3: different segments — SP(s1, src),
            // SP(src, s2), SP(d1, dest), SP(dest, d2).
            let s1 = ride.via_points[pickup_seg];
            let s2 = ride.via_points[pickup_seg + 1];
            let leg1 = path_route(s1.node, pickup_node)?;
            let leg2 = path_route(pickup_node, s2.node)?;
            pickup_idx = s1.route_idx + leg1.len() - 1;
            let after_pickup = ride.route.splice(s1.route_idx, s2.route_idx, &leg1.concat(&leg2));
            // The pick-up splice shifted the via-points *behind* s2 in
            // the list. Shift by list position, not by route-index
            // comparison: consecutive via-points may share a route_idx
            // (zero-length segments left by earlier bookings), and
            // comparing indices would drag a splice's start point along
            // with its end.
            let shift1 = after_pickup.len() as isize - ride.route.len() as isize;
            let at1 = |pos: usize, old: usize| -> usize {
                if pos > pickup_seg {
                    (old as isize + shift1) as usize
                } else {
                    old
                }
            };
            let d1_idx = at1(dropoff_seg, ride.via_points[dropoff_seg].route_idx);
            let d2_idx = at1(dropoff_seg + 1, ride.via_points[dropoff_seg + 1].route_idx);
            let d1_node = after_pickup.nodes()[d1_idx];
            let d2_node = after_pickup.nodes()[d2_idx];
            let leg3 = path_route(d1_node, dropoff_node)?;
            let leg4 = path_route(dropoff_node, d2_node)?;
            dropoff_idx = d1_idx + leg3.len() - 1;
            new_route = after_pickup.splice(d1_idx, d2_idx, &leg3.concat(&leg4));
            let shift2 = new_route.len() as isize - after_pickup.len() as isize;
            let at2 = |pos: usize, idx1: usize| -> usize {
                if pos > dropoff_seg {
                    (idx1 as isize + shift2) as usize
                } else {
                    idx1
                }
            };
            vps = ride
                .via_points
                .iter()
                .enumerate()
                .map(|(pos, v)| ViaPoint {
                    route_idx: at2(pos, at1(pos, v.route_idx)),
                    node: v.node,
                })
                .collect();
            vps.insert(pickup_seg + 1, ViaPoint { route_idx: pickup_idx, node: pickup_node });
            vps.insert(dropoff_seg + 2, ViaPoint { route_idx: dropoff_idx, node: dropoff_node });
        }
        self.stats.shortest_paths.add(sp_count as u64);
        debug_assert!(vps.windows(2).all(|w| w[0].route_idx <= w[1].route_idx), "via-points out of order");
        debug_assert!(vps.iter().all(|v| new_route.nodes()[v.route_idx] == v.node));

        let actual_detour = (new_route.dist_m() - old_len).max(0.0);
        // The search-time estimate respected the budget; the realised
        // detour may exceed it by the discretization error (bounded by
        // the ε guarantee). The booking is honoured either way — that
        // overshoot is exactly what the Figure 3a experiment measures —
        // but the consumed budget is recorded truthfully, so the ride
        // stops accepting further riders once it is exhausted.
        let ride = self.rides_mut().get_mut(&m.ride).expect("checked above");

        let pickup_eta;
        let dropoff_eta;
        {
            ride.route = new_route;
            ride.via_points = vps;
            ride.seats_available -= 1;
            ride.detour_used_m += actual_detour;
            ride.bookings.push(Booking { pickup_idx, dropoff_idx, detour_m: actual_detour });
            pickup_eta = ride.eta_at_route_idx(pickup_idx);
            dropoff_eta = ride.eta_at_route_idx(dropoff_idx);
        }

        // Refresh the index: remove every stale entry, recompute the
        // pass-through and reachable clusters for the updated route and
        // the reduced detour budget.
        let (region, config) = (std::sync::Arc::clone(self.region()), self.config().clone());
        self.with_index_and_ride(m.ride, |ride, index| {
            XarEngine::deindex_ride(ride, index);
            let from = ride.progress_idx;
            XarEngine::index_ride(&region, &config, ride, index, from);
        });
        // Seats and remaining detour budget changed: the next publish
        // rewrites this ride's snapshot row.
        self.mark_ride_dirty(m.ride);
        self.bump_state_version();
        self.stats.bookings.inc();
        // Per-cluster labeled series (successful bookings only): the
        // pick-up cluster folded into a fixed bucket keeps cardinality
        // bounded while still exposing spatial skew.
        let bucket = crate::metrics::EngineMetrics::cluster_bucket(m.pickup_cluster.0);
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        self.metrics.book_ns_cluster[bucket].record(elapsed_ns);
        self.metrics.bookings_cluster[bucket].inc();
        // Latency exemplar: remember which trace produced a slow
        // booking so /metrics links back to the flight recorder.
        if let Some(ctx) = xar_obs::trace::current_ctx() {
            self.metrics.book_exemplar.offer(elapsed_ns, ctx.trace);
        }
        tspan.attr("ride", m.ride.0);
        tspan.attr("shortest_paths", sp_count);
        tspan.attr("detour_m", actual_detour);

        Ok(BookingOutcome {
            ride: m.ride,
            actual_detour_m: actual_detour,
            estimated_detour_m: m.detour_est_m,
            walk_total_m: m.walk_total_m(),
            pickup_eta_s: pickup_eta,
            dropoff_eta_s: dropoff_eta,
            shortest_paths: sp_count,
            detour_budget_before_m: budget_before,
        })
    }
}
