#include "matching/pgreedy_dp.h"

namespace mtshare {

PGreedyDpDispatcher::PGreedyDpDispatcher(const RoadNetwork& network,
                                         DistanceOracle* oracle,
                                         std::vector<TaxiState>* fleet,
                                         const MatchingConfig& config)
    : Dispatcher(network, oracle, fleet, config),
      index_(network.bounds(), kGridCellM) {
  for (const TaxiState& t : *fleet_) {
    index_.Update(t.id, network_.coord(t.location));
  }
}

void PGreedyDpDispatcher::OnTaxiAdvanced(TaxiId id, size_t from_pos,
                                         size_t to_pos) {
  (void)from_pos;
  (void)to_pos;
  index_.Update(id, network_.coord(taxi(id).location));
}

void PGreedyDpDispatcher::OnScheduleCommitted(TaxiId id) {
  index_.Update(id, network_.coord(taxi(id).location));
}

DispatchOutcome PGreedyDpDispatcher::Dispatch(const RideRequest& request,
                                              Seconds now) {
  DispatchOutcome outcome;
  const Point& origin = network_.coord(request.origin);
  std::vector<int32_t> nearby;
  {
    ScopedPhaseTimer timer(phase_timers_, DispatchPhase::kCandidateSearch);
    nearby = index_.ObjectsInRadius(origin, config_.gamma_max_m);
  }

  // No direction/temporal prefilter: the scheme examines every in-range
  // taxi's schedule (the paper's Table III shows it with the largest
  // candidate sets and Fig. 7 with the slowest response); the DP itself
  // rejects unreachable pickups.
  std::vector<TaxiId> candidates;
  candidates.reserve(nearby.size());
  {
    ScopedPhaseTimer timer(phase_timers_, DispatchPhase::kFilter);
    for (int32_t id : nearby) {
      if (taxi(id).FreeSeats() < request.passengers) continue;
      candidates.push_back(id);
    }
  }
  outcome.candidates = static_cast<int32_t>(candidates.size());
  CandidateEval best = EvaluateCandidates(candidates, request, now);
  if (best.taxi == kInvalidTaxi) return outcome;
  TaxiId best_taxi = best.taxi;
  Seconds best_detour = best.insertion.detour;
  InsertionResult best_ins = std::move(best.insertion);

  RoutePlanner::PlannedRoute route = PlanShortestRoute(
      taxi(best_taxi).location, now, best_ins.schedule);
  if (!route.valid) return outcome;
  outcome.assigned = true;
  outcome.taxi = best_taxi;
  outcome.detour = best_detour;
  outcome.schedule = std::move(best_ins.schedule);
  outcome.route = std::move(route);
  return outcome;
}

}  // namespace mtshare
