#include "matching/t_share.h"

#include <algorithm>

namespace mtshare {

TShareDispatcher::TShareDispatcher(const RoadNetwork& network,
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

void TShareDispatcher::IndexTaxiAdvanced(TaxiId id, size_t from_pos,
                                         size_t to_pos) {
  (void)from_pos;
  (void)to_pos;
  index_.Update(id, network_.coord(taxi(id).location));
}

void TShareDispatcher::IndexScheduleCommitted(TaxiId id) {
  index_.Update(id, network_.coord(taxi(id).location));
}

DispatchOutcome TShareDispatcher::Dispatch(const RideRequest& request,
                                           Seconds now) {
  DispatchOutcome outcome;
  const Point& origin = network_.coord(request.origin);
  const Point& dest = network_.coord(request.destination);
  const double gamma = config_.gamma_max_m;

  // Origin side: taxis currently within gamma of the pickup.
  std::vector<int32_t> origin_side;
  {
    ScopedPhaseTimer timer(phase_timers_, DispatchPhase::kCandidateSearch);
    origin_side = index_.ObjectsInRadius(origin, gamma);
    SweepPickupReach(request, now);
  }
  // Destination side: taxis farther from the dropoff than the trip length
  // (or gamma, whichever is larger) are discarded — the dual-side
  // intersection that "mistakenly removes many possible taxis" (paper
  // Sec. III-B / Tong et al. [42]): a taxi on the far side of the
  // destination is dropped even when its schedule would serve the trip.
  const double dest_bound = std::max(Distance(origin, dest), gamma);
  std::vector<int32_t> candidates;
  {
    ScopedPhaseTimer timer(phase_timers_, DispatchPhase::kFilter);
    for (int32_t id : origin_side) {
      const TaxiState& t = taxi(id);
      if (Distance(network_.coord(t.location), dest) > dest_bound) continue;
      if (t.FreeSeats() < request.passengers) continue;
      candidates.push_back(id);
    }
    // Nearest-to-origin first; T-Share returns the FIRST valid taxi.
    std::sort(candidates.begin(), candidates.end(),
              [&](int32_t a, int32_t b) {
                return DistanceSquared(network_.coord(taxi(a).location),
                                       origin) <
                       DistanceSquared(network_.coord(taxi(b).location),
                                       origin);
              });
  }

  // T-Share's signature is first-valid (not arg-min), with route planning
  // inside the loop: the scan usually stops after one or two candidates, so
  // scoring the whole candidate list up front, as the arg-min schemes do,
  // would do strictly more work than the early exit. On the CH, leg costs
  // are therefore primed incrementally, one candidate per Prime(), so the
  // early exit keeps its win.
  if (buckets_ != nullptr) {
    buckets_->Begin(request.origin, request.destination);
  }
  for (int32_t id : candidates) {
    const TaxiState& t = taxi(id);
    ++outcome.candidates;
    {
      ScopedPhaseTimer timer(phase_timers_, DispatchPhase::kFilter);
      if (!ReachesPickup(id, request, now)) continue;
    }
    InsertionResult ins;
    {
      ScopedPhaseTimer timer(phase_timers_, DispatchPhase::kInsertion);
      // The detour-ellipse screen skips a candidate whose every insertion
      // slot is provably infeasible (its DP could only return found ==
      // false) before RegisterCandidateStops/Prime, saving its label
      // meets.
      if (!ComputeEllipseMask(t, request, now, &mask_buf_)) continue;
      if (buckets_ != nullptr) {
        RegisterCandidateStops(t);
        buckets_->Prime();
      }
      ins = FindBestInsertionDp(t.schedule, request, t.location, now,
                                t.onboard, t.capacity, LegCost(),
                                &mask_buf_);
    }
    if (!ins.found) continue;
    // First valid, not best: the scheme's signature.
    if (Assign(id, std::move(ins.schedule), ins.detour, now, &outcome)) {
      return outcome;
    }
  }
  return outcome;
}

}  // namespace mtshare
