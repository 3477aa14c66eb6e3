#include "matching/dispatcher.h"

#include <algorithm>

#include "common/logging.h"

namespace mtshare {

Dispatcher::Dispatcher(const RoadNetwork& network, DistanceOracle* oracle,
                       std::vector<TaxiState>* fleet,
                       const MatchingConfig& config,
                       const LandmarkGraph& landmarks)
    : network_(network),
      oracle_(oracle),
      fleet_(fleet),
      config_(config),
      landmarks_(landmarks),
      route_dijkstra_(network) {
  MTSHARE_CHECK(oracle != nullptr);
  MTSHARE_CHECK(fleet != nullptr);
  // The backend, not the hierarchy every oracle owns, picks the source of
  // pickup reachability and of insertion legs (DESIGN.md §14). A new store
  // marks every taxi dirty, so its first flush deposits the whole fleet.
  if (oracle->backend() == OracleBackend::kCh) {
    buckets_ = std::make_unique<LastStopBuckets>(
        *oracle->ch(), static_cast<int32_t>(fleet->size()));
  }
}

void Dispatcher::SweepPickupReach(const RideRequest& r, Seconds now) {
  if (buckets_ == nullptr) return;
  // Locations are read straight off the fleet, exactly as the table
  // probes do; every engine notification re-dirties its taxi, so the flush
  // sees the moved location. Stop labels wait for insertion to read them.
  buckets_->FlushDirty([this](TaxiId id) { return taxi(id).location; });
  buckets_->Sweep(r.origin, r.PickupDeadline() - now);
}

bool Dispatcher::ReachesPickup(TaxiId id, const RideRequest& r, Seconds now) {
  ++reach_probes_;
  if (buckets_ != nullptr) {
    return now + buckets_->SweptDistance(id) <= r.PickupDeadline();
  }
  const VertexId at = taxi(id).location;
  if (LowerBoundPrunesPickup(at, r, now)) return false;
  return now + oracle_->Cost(at, r.origin) <= r.PickupDeadline();
}

/// Slot screen for one candidate. Notation: the base schedule has events
/// ev[0..m); slot i inserts before ev[i] (i == m appends); prev_i is the
/// stop driven from (taxi location for i == 0). All bounds chain the
/// landmark triangle inequalities, so a cleared slot is *provably*
/// infeasible under the exact leg costs:
///   - lba[k] <= arr[k]: lower-bound arrival chain (arc costs are dyadic,
///     so both chains sum exactly in doubles; LowerBound never exceeds the
///     true leg).
///   - P1: even the lower-bound pickup time from slot i misses the pickup
///     deadline — no (i, j) can be feasible.
///   - P2 (i < m): ANY insertion with pickup at i displaces ev[i] by at
///     least lb_d1 = LB(prev_i, o) + LB(o, v_i) - UB(prev_i, v_i) (for
///     j > i that is d1 itself; for j == i the full detour routes o -> d
///     -> v_i, and d(o,d) + d(d,v_i) >= d(o,v_i) >= LB(o,v_i)). If ev[i]'s
///     own deadline gap cannot absorb lb_d1, every pair is infeasible.
///     Uses the PER-SLOT gap, not the suffix min: later events also gain
///     the dropoff displacement, so their gaps are not comparable here.
///   - D1: the lower-bound dropoff time from slot j misses the delivery
///     deadline for every pickup i <= j (for i < j the displaced arrival
///     at ev[j-1] is >= lba[j-1] since d1 >= 0; for i == j the route
///     prev_j -> o -> d costs at least d(prev_j, d) >= LB(prev_j, d)).
///   - D2 (j < m): every event k >= j is displaced by at least
///     lb_d2 = LB(prev_j, d) + LB(d, v_j) - UB(prev_j, v_j) (for i < j the
///     total displacement is d1 + d2 >= d2 >= lb_d2; for i == j the full
///     detour bounds the same way via d(prev,o) + d(o,d) >= d(prev,d)).
///     The suffix-min gap over k >= j is valid because ALL of them shift.
/// kLbSlack absorbs the (sub-ulp) FP slop of the comparisons, mirroring
/// LowerBoundPrunesPickup. UpperBound returns kInfiniteCost on
/// disconnected terms, making lb_d1/lb_d2 -inf: never prunes.
bool Dispatcher::ComputeEllipseMask(const TaxiState& t, const RideRequest& r,
                                    Seconds now, InsertionSlotMask* mask) {
  const EventSpan ev = t.schedule.events();
  const size_t m = ev.size();
  mask->pickup.assign(m + 1, 1);
  mask->dropoff.assign(m + 1, 1);
  const LandmarkGraph& lm = landmarks_;
  slots_screened_ += static_cast<int64_t>(2 * (m + 1));
  const Seconds pickup_deadline = r.PickupDeadline();

  std::vector<Seconds>& lba = lba_buf_;
  lba.assign(m, 0.0);
  {
    Seconds at_time = now;
    VertexId at = t.location;
    for (size_t k = 0; k < m; ++k) {
      at_time += lm.LowerBound(at, ev[k].vertex);
      lba[k] = at_time;
      at = ev[k].vertex;
    }
  }
  std::vector<Seconds>& gap_suffix = gap_suffix_buf_;
  gap_suffix.assign(m + 1, kInfiniteCost);
  for (size_t k = m; k-- > 0;) {
    gap_suffix[k] = std::min(gap_suffix[k + 1], ev[k].deadline - lba[k]);
  }

  int64_t pruned = 0;
  for (size_t i = 0; i <= m; ++i) {
    const VertexId prev = (i == 0) ? t.location : ev[i - 1].vertex;
    const Seconds t_prev_lb = (i == 0) ? now : lba[i - 1];
    const Seconds to_pickup_lb = lm.LowerBound(prev, r.origin);
    if (t_prev_lb + to_pickup_lb > pickup_deadline + kLbSlack) {  // P1
      mask->pickup[i] = 0;
      ++pruned;
      continue;
    }
    if (i < m) {  // P2
      const Seconds lb_d1 = to_pickup_lb +
                            lm.LowerBound(r.origin, ev[i].vertex) -
                            lm.UpperBound(prev, ev[i].vertex);
      if (lb_d1 > (ev[i].deadline - lba[i]) + kLbSlack) {
        mask->pickup[i] = 0;
        ++pruned;
      }
    }
  }
  for (size_t j = 0; j <= m; ++j) {
    const VertexId prev = (j == 0) ? t.location : ev[j - 1].vertex;
    Seconds drop_lb;
    if (j == 0) {
      drop_lb = now + lm.LowerBound(t.location, r.origin) +
                lm.LowerBound(r.origin, r.destination);
    } else {
      drop_lb = lba[j - 1] + lm.LowerBound(prev, r.destination);
    }
    if (drop_lb > r.deadline + kLbSlack) {  // D1
      mask->dropoff[j] = 0;
      ++pruned;
      continue;
    }
    if (j < m) {  // D2
      const Seconds lb_d2 = lm.LowerBound(prev, r.destination) +
                            lm.LowerBound(r.destination, ev[j].vertex) -
                            lm.UpperBound(prev, ev[j].vertex);
      if (lb_d2 > gap_suffix[j] + kLbSlack) {
        mask->dropoff[j] = 0;
        ++pruned;
      }
    }
  }
  ellipse_pruned_ += pruned;

  // The candidate survives iff some allowed pickup slot i has an allowed
  // dropoff slot j >= i.
  size_t last_drop = m + 1;  // sentinel: none allowed
  for (size_t j = m + 1; j-- > 0;) {
    if (mask->dropoff[j]) {
      last_drop = j;
      break;
    }
  }
  if (last_drop == m + 1) return false;
  for (size_t i = 0; i <= last_drop; ++i) {
    if (mask->pickup[i]) return true;
  }
  return false;
}

bool Dispatcher::LowerBoundPrunesPickup(VertexId taxi_location,
                                        const RideRequest& r, Seconds now) {
  Seconds lb = landmarks_.LowerBound(taxi_location, r.origin);
  if (now + lb > r.PickupDeadline() + kLbSlack) {
    ++lb_pruned_;
    return true;
  }
  return false;
}

Dispatcher::CandidateEval Dispatcher::EvaluateCandidates(
    std::span<const TaxiId> candidates, const RideRequest& request,
    Seconds now) {
  ScopedPhaseTimer timer(phase_timers_, DispatchPhase::kInsertion);
  if (buckets_ != nullptr) {
    buckets_->Begin(request.origin, request.destination);
  }
  CandidateEval best;
  for (const TaxiId id : candidates) {
    InsertionResult ins = PriceCandidate(taxi(id), request, now);
    // Strict < in candidate order: ties go to the earliest candidate.
    if (ins.found && ins.detour < best.insertion.detour) {
      best.taxi = id;
      best.insertion = std::move(ins);
    }
  }
  return best;
}

InsertionResult Dispatcher::PriceCandidate(const TaxiState& t,
                                           const RideRequest& r, Seconds now) {
  // The screen's P1 test at slot 0 is the landmark lower-bound pickup
  // prune; it also masks provably infeasible insertion slots out of the
  // DP. A candidate with no surviving slot pair could only return
  // found == false, so its legs are not primed.
  if (!ComputeEllipseMask(t, r, now, &mask_)) return {};
  // On the exact table a leg is one table read, so nothing is primed. On
  // the CH the store meets this walk's labels into its leg table, which
  // the DP alone reads: the next candidate's Prime replaces it.
  LegCostFn cost = [this](VertexId a, VertexId b) {
    return oracle_->Cost(a, b);
  };
  if (buckets_ != nullptr) {
    walk_buf_.assign(1, t.location);
    for (const ScheduleEvent& e : t.schedule.events()) {
      walk_buf_.push_back(e.vertex);
    }
    buckets_->Prime(t.id, walk_buf_);
    cost = [this](VertexId a, VertexId b) { return buckets_->Cost(a, b); };
  }
  return FindBestInsertionDp(t.schedule, r, t.location, now, t.onboard,
                             t.capacity, cost, &mask_);
}

bool Dispatcher::Assign(TaxiId id, Schedule schedule, Seconds detour,
                        Seconds now, DispatchOutcome* out,
                        RoutePlanner::PlannedRoute route) {
  if (!route.valid) route = PlanShortestRoute(taxi(id).location, now, schedule);
  if (!route.valid) return false;
  out->assigned = true;
  out->taxi = id;
  out->detour = detour;
  out->schedule = std::move(schedule);
  out->route = std::move(route);
  return true;
}

RoutePlanner::PlannedRoute Dispatcher::PlanShortestRoute(
    VertexId start, Seconds start_time, const Schedule& schedule) {
  ScopedPhaseTimer timer(phase_timers_, DispatchPhase::kRouting);
  RoutePlanner::PlannedRoute out;
  out.path = Path::Trivial(start);
  Seconds t = start_time;
  VertexId at = start;
  for (const ScheduleEvent& event : schedule.events()) {
    Path leg = at == event.vertex ? Path::Trivial(at)
                                  : ShortestLeg(at, event.vertex);
    if (!leg.valid) return RoutePlanner::PlannedRoute{};
    t += leg.cost;
    if (t > event.deadline + 1e-9) return RoutePlanner::PlannedRoute{};
    AppendPath(&out.path, leg);
    out.event_arrivals.push_back(t);
    at = event.vertex;
  }
  out.valid = true;
  return out;
}

Path Dispatcher::ShortestLeg(VertexId from, VertexId to) {
  // Insertion priming has almost always filled the source's row; reading
  // it fills nothing and ticks no oracle counter.
  const std::vector<Seconds>* row = oracle_->ResidentRow(from);
  if (row == nullptr) {
    ++route_legs_searched_;
    return route_dijkstra_.FindPath(from, to);
  }
  Path leg = route_dijkstra_.FindPathFromRow(from, to, *row);
  ++(route_dijkstra_.last_path_prefixed() ? route_legs_prefixed_
                                          : route_legs_walked_);
  return leg;
}

void Dispatcher::EnableIdleCruising(const MapPartitioning* partitioning,
                                    RoutePlanner* planner) {
  MTSHARE_CHECK(partitioning != nullptr && planner != nullptr);
  cruise_partitioning_ = partitioning;
  cruise_planner_ = planner;
}

RoutePlanner::PlannedRoute Dispatcher::PlanIdleCruise(TaxiId id, Seconds now) {
  if (cruise_planner_ == nullptr) return {};
  if (next_cruise_time_.size() != fleet_->size()) {
    next_cruise_time_.assign(fleet_->size(), 0.0);
  }
  if (now < next_cruise_time_[id]) return {};
  next_cruise_time_[id] = now + 60.0;  // retry at most once a minute

  const TaxiState& t = taxi(id);
  const MapPartitioning& parts = *cruise_partitioning_;
  PartitionId here = parts.PartitionOf(t.location);
  // Candidate cruise targets: nearby partitions weighted by direction-free
  // encounter mass. Sampling (not arg-max) keeps the idle fleet spread out
  // instead of herding every empty taxi into the single hottest zone.
  const Point& pos = network_.coord(t.location);
  std::vector<PartitionId> nearby;
  std::vector<double> weights;
  for (PartitionId p = 0; p < parts.num_partitions(); ++p) {
    if (p == here) continue;
    if (Distance(pos, parts.centroids[p]) > config_.gamma_max_m) continue;
    double mass = cruise_planner_->PartitionEncounterMass(p, Point{0, 0});
    if (mass <= 0.0) continue;
    nearby.push_back(p);
    weights.push_back(mass);
  }
  if (nearby.empty()) return {};
  PartitionId target_partition = nearby[cruise_rng_.NextDiscrete(weights)];

  VertexId target = parts.landmarks[target_partition];
  if (target == t.location) return {};
  Seconds shortest = oracle_->Cost(t.location, target);
  if (shortest == kInfiniteCost) return {};
  Path leg = cruise_planner_->PlanProbabilisticLeg(
      t.location, target, Point{0, 0}, shortest * 1.5 + 60.0);
  if (!leg.valid) leg = cruise_planner_->PlanBasicLeg(t.location, target);
  if (!leg.valid) return {};
  RoutePlanner::PlannedRoute route;
  route.valid = true;
  route.path = std::move(leg);
  return route;
}

DispatchOutcome Dispatcher::TryServeEncountered(const RideRequest& request,
                                                TaxiId taxi_id, Seconds now) {
  DispatchOutcome outcome;
  if (taxi(taxi_id).FreeSeats() < request.passengers) return outcome;
  // The taxi is physically at the request's origin: insert and re-plan.
  // Its one insertion is priced like any candidate's; the screen clears
  // only provably infeasible slots and primed legs equal Cost() bit for
  // bit, so the result is the unscreened per-pair optimum.
  CandidateEval best = EvaluateCandidates({&taxi_id, 1}, request, now);
  if (best.taxi == kInvalidTaxi) return outcome;
  if (Assign(taxi_id, std::move(best.insertion.schedule),
             best.insertion.detour, now, &outcome)) {
    outcome.candidates = 1;
  }
  return outcome;
}

}  // namespace mtshare
