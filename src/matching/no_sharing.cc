#include "matching/no_sharing.h"

namespace mtshare {

NoSharingDispatcher::NoSharingDispatcher(const RoadNetwork& network,
                                         DistanceOracle* oracle,
                                         std::vector<TaxiState>* fleet,
                                         const MatchingConfig& config,
                                         const LandmarkGraph& landmarks)
    : Dispatcher(network, oracle, fleet, config, landmarks),
      index_(network.bounds(), kGridCellM) {
  for (const TaxiState& t : *fleet_) {
    if (t.Idle()) index_.Update(t.id, network_.coord(t.location));
  }
}

void NoSharingDispatcher::IndexScheduleCommitted(TaxiId id) {
  const TaxiState& t = taxi(id);
  if (t.Idle()) {
    index_.Update(id, network_.coord(t.location));
  } else {
    index_.Remove(id);
  }
}

DispatchOutcome NoSharingDispatcher::Dispatch(const RideRequest& request,
                                              Seconds now) {
  DispatchOutcome outcome;
  const Point& origin = network_.coord(request.origin);
  std::vector<int32_t> nearby;
  {
    ScopedPhaseTimer timer(phase_timers_, DispatchPhase::kCandidateSearch);
    nearby = index_.ObjectsInRadius(origin, config_.gamma_max_m);
    // Nearest idle taxi that can still reach the pickup in time.
    std::sort(nearby.begin(), nearby.end(), [&](int32_t a, int32_t b) {
      return DistanceSquared(network_.coord(taxi(a).location), origin) <
             DistanceSquared(network_.coord(taxi(b).location), origin);
    });
    SweepPickupReach(request, now);
  }
  for (int32_t id : nearby) {
    const TaxiState& t = taxi(id);
    if (!t.Idle() || t.capacity < request.passengers) continue;
    ++outcome.candidates;
    {
      ScopedPhaseTimer timer(phase_timers_, DispatchPhase::kFilter);
      if (!ReachesPickup(id, request, now)) continue;
    }
    Schedule schedule;
    schedule.Append(ScheduleEvent{request.id, request.origin, true,
                                  request.PickupDeadline(),
                                  request.passengers});
    schedule.Append(ScheduleEvent{request.id, request.destination, false,
                                  request.deadline, request.passengers});
    // Exclusive ride: no shared detour.
    if (Assign(id, std::move(schedule), 0.0, now, &outcome)) return outcome;
  }
  return outcome;
}

}  // namespace mtshare
