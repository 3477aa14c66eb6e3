#include "matching/pgreedy_dp.h"

namespace mtshare {

PGreedyDpDispatcher::PGreedyDpDispatcher(const RoadNetwork& network,
                                         DistanceOracle* oracle,
                                         std::vector<TaxiState>* fleet,
                                         const MatchingConfig& config,
                                         const LandmarkGraph& landmarks)
    : Dispatcher(network, oracle, fleet, config, landmarks),
      index_(network.bounds(), kGridCellM) {
  for (const TaxiState& t : *fleet_) {
    index_.Update(t.id, network_.coord(t.location));
  }
}

void PGreedyDpDispatcher::IndexTaxiAdvanced(TaxiId id, size_t from_pos,
                                            size_t to_pos) {
  (void)from_pos;
  (void)to_pos;
  index_.Update(id, network_.coord(taxi(id).location));
}

void PGreedyDpDispatcher::IndexScheduleCommitted(TaxiId id) {
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
  Assign(best.taxi, std::move(best.insertion.schedule), best.insertion.detour,
         now, &outcome);
  return outcome;
}

}  // namespace mtshare
