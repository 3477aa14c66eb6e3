#include "sim/taxi.h"

#include <limits>

#include "common/logging.h"

namespace mtshare {
namespace {

const Arc* FindCheapestArc(const RoadNetwork& network, VertexId u,
                           VertexId v) {
  const Arc* best = nullptr;
  for (const Arc& arc : network.OutArcs(u)) {
    if (arc.head == v && (best == nullptr || arc.cost < best->cost)) {
      best = &arc;
    }
  }
  return best;
}

}  // namespace

void ApplyPlan(TaxiState* taxi, const RoadNetwork& network, Schedule schedule,
               const std::vector<VertexId>& path,
               std::vector<Seconds> event_arrivals, Seconds now) {
  MTSHARE_CHECK(!path.empty());
  MTSHARE_CHECK(path.front() == taxi->location);
  MTSHARE_CHECK(schedule.size() == event_arrivals.size());
  taxi->schedule = std::move(schedule);
  taxi->event_arrivals = std::move(event_arrivals);
  taxi->event_pos = 0;
  // Fill the route nodes directly in one adjacency pass; TaxiRoute::Reset
  // retains the previous plan's capacity, so steady-state replanning is
  // allocation-free.
  taxi->route.Reset(path.front(), now);
  Seconds t = now;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const Arc* arc = FindCheapestArc(network, path[i], path[i + 1]);
    MTSHARE_CHECK(arc != nullptr);
    t += arc->cost;
    taxi->route.Append(arc->length_m, path[i + 1], t);
  }
  taxi->route_pos = 0;
  taxi->location_time = now;
}

}  // namespace mtshare
