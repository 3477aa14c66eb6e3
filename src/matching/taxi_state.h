#ifndef MTSHARE_MATCHING_TAXI_STATE_H_
#define MTSHARE_MATCHING_TAXI_STATE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "geo/mobility_vector.h"
#include "graph/road_network.h"
#include "sched/schedule.h"

namespace mtshare {

/// One materialized route node: the vertex, its planned arrival time, and
/// the cached length in meters of the arc to the *next* node (0 on the
/// last node). Interleaving the per-node fields keeps the event engine's
/// heap-pop -> advance loop on one cache line per step instead of touching
/// three parallel arrays.
struct RouteNode {
  VertexId vertex = kInvalidVertex;
  Seconds time = 0.0;
  double arc_length_m = 0.0;
};

/// A taxi's materialized route R_tj. Storage is a single node vector whose
/// capacity survives Reset(), so a taxi replanned thousands of times over a
/// run settles into one stable arena-like allocation instead of churning
/// three vectors per plan.
class TaxiRoute {
 public:
  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  VertexId vertex(size_t i) const { return nodes_[i].vertex; }
  Seconds time(size_t i) const { return nodes_[i].time; }
  /// Meters of arc vertex(i) -> vertex(i+1), cached at plan time so
  /// stepping a taxi needs no adjacency lookups.
  double arc_length_m(size_t i) const { return nodes_[i].arc_length_m; }
  Seconds back_time() const { return nodes_.back().time; }

  /// Starts a fresh route at `start`, departing at `t`; retains capacity.
  void Reset(VertexId start, Seconds t) {
    nodes_.clear();
    nodes_.push_back(RouteNode{start, t, 0.0});
  }
  /// Extends the route across an arc of `arc_m` meters to `vertex`,
  /// arriving at `t`.
  void Append(double arc_m, VertexId vertex, Seconds t) {
    nodes_.back().arc_length_m = arc_m;
    nodes_.push_back(RouteNode{vertex, t, 0.0});
  }

 private:
  std::vector<RouteNode> nodes_;
};

/// Runtime status of one shared taxi (paper Def. 3): current location, the
/// pending schedule S_tj and its materialized route R_tj, plus bookkeeping
/// the simulation and payment model need.
struct TaxiState {
  TaxiId id = kInvalidTaxi;
  int32_t capacity = 3;
  /// Riders currently inside the taxi.
  int32_t onboard = 0;

  /// Last reached vertex and when the taxi arrived there.
  VertexId location = kInvalidVertex;
  Seconds location_time = 0.0;

  /// Pending pickup/dropoff events, in execution order.
  Schedule schedule;
  /// Planned arrival time per schedule event of the applied plan. Executed
  /// events advance `event_pos` instead of shifting the vector, keeping it
  /// parallel to the schedule's popped prefix.
  std::vector<Seconds> event_arrivals;
  size_t event_pos = 0;

  /// Remaining route: route.vertex(route_pos) == location; empty when idle.
  TaxiRoute route;
  size_t route_pos = 0;

  /// Lifetime odometer (meters) and the occupied sub-distance.
  double driven_meters = 0.0;
  double occupied_meters = 0.0;
  /// Accumulated driver income under the active payment model.
  double income = 0.0;

  /// Distance driven in the current ridesharing episode (resets when the
  /// taxi empties; feeds the episode settlement of the payment model).
  double episode_meters = 0.0;
  /// Requests picked up during the current episode, settled together.
  std::vector<RequestId> episode_requests;

  int32_t FreeSeats() const { return capacity - onboard; }
  bool Idle() const { return schedule.empty() && onboard == 0; }
  bool HasRoute() const { return route_pos + 1 < route.size(); }
};

/// The mobility vector (paper Sec. IV-B2) of a taxi at `location` that
/// follows `schedule`: origin = `location`, destination = centroid of the
/// schedule's dropoff vertices. With no dropoff the displacement is zero:
/// the taxi has "no fixed travel destination" and is not
/// mobility-clustered. The span-batched index updates reindex a taxi with
/// it at the route position where it crossed a partition border, and
/// mT-Share-pro steers a winning schedule's probabilistic route along its
/// displacement.
MobilityVector ScheduleMobilityVector(const Schedule& schedule,
                                      const RoadNetwork& network,
                                      VertexId location);

/// The taxi's mobility vector: its schedule's at its current location.
MobilityVector TaxiMobilityVector(const TaxiState& taxi,
                                  const RoadNetwork& network);

/// Builds `count` idle taxis at uniformly random vertices (Sec. V-A4 sets
/// initial taxi locations to random graph vertices).
std::vector<TaxiState> MakeFleet(const RoadNetwork& network, int32_t count,
                                 int32_t capacity, uint64_t seed,
                                 Seconds start_time = 0.0);

}  // namespace mtshare

#endif  // MTSHARE_MATCHING_TAXI_STATE_H_
