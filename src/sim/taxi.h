#ifndef MTSHARE_SIM_TAXI_H_
#define MTSHARE_SIM_TAXI_H_

#include <vector>

#include "matching/taxi_state.h"

namespace mtshare {

/// Applies a dispatch plan to a taxi: replaces schedule, route, and event
/// arrival times; the taxi departs its current location at `now`. Each
/// step takes the cheapest arc between consecutive vertices; dies if the
/// path uses a nonexistent arc (routes must come from the planners).
void ApplyPlan(TaxiState* taxi, const RoadNetwork& network, Schedule schedule,
               const std::vector<VertexId>& path,
               std::vector<Seconds> event_arrivals, Seconds now);

}  // namespace mtshare

#endif  // MTSHARE_SIM_TAXI_H_
