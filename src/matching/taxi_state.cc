#include "matching/taxi_state.h"

#include "common/random.h"

namespace mtshare {

MobilityVector ScheduleMobilityVector(const Schedule& schedule,
                                      const RoadNetwork& network,
                                      VertexId location) {
  const Point& here = network.coord(location);
  Point dest_sum{0, 0};
  int32_t dropoffs = 0;
  for (const ScheduleEvent& e : schedule.events()) {
    if (e.is_pickup) continue;
    dest_sum.x += network.coord(e.vertex).x;
    dest_sum.y += network.coord(e.vertex).y;
    ++dropoffs;
  }
  if (dropoffs == 0) return MobilityVector{here, here};
  return MobilityVector{
      here, Point{dest_sum.x / dropoffs, dest_sum.y / dropoffs}};
}

MobilityVector TaxiMobilityVector(const TaxiState& taxi,
                                  const RoadNetwork& network) {
  return ScheduleMobilityVector(taxi.schedule, network, taxi.location);
}

std::vector<TaxiState> MakeFleet(const RoadNetwork& network, int32_t count,
                                 int32_t capacity, uint64_t seed,
                                 Seconds start_time) {
  Rng rng(seed);
  std::vector<TaxiState> fleet(count);
  for (int32_t i = 0; i < count; ++i) {
    fleet[i].id = i;
    fleet[i].capacity = capacity;
    fleet[i].location =
        static_cast<VertexId>(rng.NextInt(0, network.num_vertices() - 1));
    fleet[i].location_time = start_time;
  }
  return fleet;
}

}  // namespace mtshare
