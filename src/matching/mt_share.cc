#include "matching/mt_share.h"

#include <algorithm>
#include <cmath>

#include "common/epoch.h"

namespace mtshare {
namespace {

/// A taxi drives probabilistic legs only while at least this fraction of
/// its capacity is idle (Sec. V-A1: "half of the capacity in idle").
constexpr double kProbFreeSeatFraction = 0.5;

}  // namespace

MtShareDispatcher::MtShareDispatcher(const RoadNetwork& network,
                                     DistanceOracle* oracle,
                                     std::vector<TaxiState>* fleet,
                                     const MatchingConfig& config,
                                     const LandmarkGraph& landmarks,
                                     const MapPartitioning& partitioning,
                                     const TransitionModel& transitions,
                                     bool probabilistic)
    : Dispatcher(network, oracle, fleet, config, landmarks),
      partitioning_(partitioning),
      probabilistic_(probabilistic),
      planner_(network, partitioning, landmarks, &transitions, oracle,
               RoutePlannerOptions{config.lambda, config.prob_max_stretch}),
      index_(network, partitioning, config.lambda),
      seen_stamp_(fleet->size(), 0),
      cluster_stamp_(fleet->size(), 0) {
  if (probabilistic_) EnableIdleCruising(&partitioning_, &planner_);
  for (const TaxiState& t : *fleet_) index_.ReindexTaxi(t, t.location_time);
}

void MtShareDispatcher::IndexTaxiAdvanced(TaxiId id, size_t from_pos,
                                          size_t to_pos) {
  index_.OnTaxiAdvanced(taxi(id), from_pos, to_pos);
}

void MtShareDispatcher::IndexScheduleCommitted(TaxiId id) {
  const TaxiState& t = taxi(id);
  index_.ReindexTaxi(t, t.location_time);
}

void MtShareDispatcher::IndexRequestCompleted(const RideRequest& request,
                                              TaxiId id) {
  (void)id;
  index_.RemoveRequest(request.id);
}

size_t MtShareDispatcher::IndexMemoryBytes() const {
  return index_.MemoryBytes();
}

bool MtShareDispatcher::ProbQualifies(const TaxiState& t) const {
  double needed = kProbFreeSeatFraction * t.capacity;
  return t.FreeSeats() >= static_cast<int32_t>(std::ceil(needed - 1e-9));
}

const std::vector<TaxiId>& MtShareDispatcher::CandidateTaxis(
    const RideRequest& request, Seconds now, double gamma) {
  const Point& origin = network_.coord(request.origin);
  MobilityVector rv{origin, network_.coord(request.destination)};

  // One epoch covers both stamp arrays for this call.
  NextEpoch(seen_epoch_, seen_stamp_, cluster_stamp_);

  area_buf_.clear();
  {
    // Partition + mobility-compatibility setup is the filter phase: it
    // decides which taxis are even eligible before the arrival lists are
    // scanned.
    ScopedPhaseTimer timer(phase_timers_, DispatchPhase::kFilter);
    // Partitions intersecting the searching circle (eq. (3)'s S_ri).
    partitioning_.AppendPartitionsIntersectingCircle(origin, gamma,
                                                     &area_buf_);

    // Direction-compatible mobility cluster(s): the single best C_a per the
    // literal eq. (3), or the union of all passing clusters (default; avoids
    // losing taxis to cluster fragmentation).
    cluster_buf_.clear();
    if (config_.match_all_compatible_clusters) {
      index_.AppendCompatibleClusterTaxis(rv, &cluster_buf_);
    } else {
      index_.AppendClusterTaxis(index_.FindCluster(rv), &cluster_buf_);
    }
    for (TaxiId id : cluster_buf_) cluster_stamp_[id] = seen_epoch_;
  }

  ScopedPhaseTimer timer(phase_timers_, DispatchPhase::kCandidateSearch);
  std::vector<TaxiId>& candidates = candidates_buf_;
  candidates.clear();
  const Seconds pickup_deadline = request.PickupDeadline();
  SweepPickupReach(request, now);
  // Epoch-stamped dedup across overlapping partitions.
  for (PartitionId p : area_buf_) {
    for (const MtShareTaxiIndex::Arrival& entry : index_.PartitionTaxis(p)) {
      // Lists are arrival-sorted (Sec. IV-B3): once an entry arrives after
      // the pickup deadline, every later one does too (refinement rule 3,
      // cheap form).
      if (entry.time > pickup_deadline) break;
      TaxiId id = entry.taxi;
      if (seen_stamp_[id] == seen_epoch_) continue;
      seen_stamp_[id] = seen_epoch_;
      const TaxiState& t = taxi(id);
      // Rule (eq. 3): busy taxis must share the travel direction; empty
      // taxis are always eligible (refinement rule 1).
      if (!t.Idle() && cluster_stamp_[id] != seen_epoch_) continue;
      // Refinement rule 2: idle capacity.
      if (t.FreeSeats() < request.passengers) continue;
      // Refinement rule 3: exact reachability.
      if (!ReachesPickup(id, request, now)) continue;
      candidates.push_back(id);
    }
  }
  return candidates;
}

DispatchOutcome MtShareDispatcher::Dispatch(const RideRequest& request,
                                            Seconds now) {
  DispatchOutcome outcome;
  // Searching range gamma. Eq. (2) derives gamma = speed * wait-budget; the
  // paper's evaluation fixes gamma = 2.5 km ("equivalent to a waiting time
  // of 10 min", Table II) for all schemes, so the fixed range is used.
  double gamma = config_.gamma_max_m;
  const std::vector<TaxiId>& candidates = CandidateTaxis(request, now, gamma);

  // Exhaustive insertion over the candidate set (Algorithm 1): the lowest
  // detour wins, ties to the earliest candidate.
  outcome.candidates = static_cast<int32_t>(candidates.size());
  CandidateEval best = EvaluateCandidates(candidates, request, now);
  if (best.taxi == kInvalidTaxi) return outcome;

  // Probabilistic mode (Algorithm 1 with flag set): the winning schedule
  // instance gets an offline-seeking route. The paper costs every instance
  // with its probabilistic route; we select by oracle detour and plan the
  // winner's route probabilistically — same winner in almost all cases at
  // a fraction of the planning work (see DESIGN.md).
  RoutePlanner::PlannedRoute prob_route;
  if (probabilistic_ && ProbQualifies(taxi(best.taxi))) {
    const TaxiState& t = taxi(best.taxi);
    const Point dir =
        ScheduleMobilityVector(best.insertion.schedule, network_, t.location)
            .Displacement();
    ScopedPhaseTimer timer(phase_timers_, DispatchPhase::kRouting);
    prob_route =
        planner_.PlanRoute(t.location, now, best.insertion.schedule, dir);
  }

  // Without a valid probabilistic route, basic routing commits exact
  // shortest legs: the paper precomputes and caches all-pairs shortest
  // paths for every scheme (Sec. V-A4), so the partition-filtered search
  // (RoutePlanner::PlanBasicLeg) is the cold-cache compute path, not a
  // different route. Costs come from the same oracle the insertion check
  // used, so feasibility carries over.
  if (!Assign(best.taxi, std::move(best.insertion.schedule),
              best.insertion.detour, now, &outcome, std::move(prob_route))) {
    return outcome;
  }
  index_.AddRequest(request);  // active rides shape the cluster vectors
  return outcome;
}

}  // namespace mtshare
