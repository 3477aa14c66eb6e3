#ifndef MTSHARE_TRAFFIC_CONGESTION_H_
#define MTSHARE_TRAFFIC_CONGESTION_H_

#include <array>
#include <vector>

#include "graph/road_network.h"
#include "routing/path.h"

namespace mtshare {

/// Diurnal congestion: a piecewise-linear multiplier on free-flow travel
/// times, anchored at each hour's midpoint. The paper assumes stable
/// traffic (Sec. III-A) but states the system "could easily extend to run
/// with real-time traffic conditions"; this module is that extension point.
///
/// Linear interpolation keeps the cost function continuous, and city-scale
/// hourly deltas keep it FIFO (a later departure never arrives earlier),
/// which time-dependent Dijkstra requires for correctness.
class CongestionProfile {
 public:
  /// Flat profile (multiplier 1.0 all day) — equivalent to static costs.
  CongestionProfile();

  /// Custom 24-hour multipliers (index = hour). All must be >= 1.0.
  explicit CongestionProfile(const std::array<double, 24>& hourly);

  /// A typical workday city profile: morning (7-9) and evening (17-19)
  /// rush slowdowns scaled by `amplitude` (0 = free flow, 1 = up to +80%).
  static CongestionProfile Workday(double amplitude);

  /// Multiplier at an absolute time (seconds since midnight, wraps daily).
  double Multiplier(Seconds time) const;

 private:
  std::array<double, 24> hourly_;
};

/// Earliest-arrival search under time-dependent edge costs
/// cost(u→v, t) = freeflow(u→v) * profile.Multiplier(t).
/// FIFO networks make label-setting Dijkstra exact.
///
/// Not thread-safe; create one per thread.
class TimeDependentDijkstra {
 public:
  TimeDependentDijkstra(const RoadNetwork& network,
                        const CongestionProfile& profile);

  /// Earliest arrival time at target when departing source at
  /// `departure_time`; kInfiniteCost if unreachable.
  Seconds EarliestArrival(VertexId source, VertexId target,
                          Seconds departure_time);

  /// Travel duration (arrival - departure).
  Seconds Cost(VertexId source, VertexId target, Seconds departure_time);

  /// Full path of the earliest-arrival route.
  Path FindPath(VertexId source, VertexId target, Seconds departure_time);

  /// Re-times an existing vertex path under congestion: the arrival time
  /// at the last vertex when departing at departure_time. Used to audit
  /// how statically planned routes degrade under traffic.
  Seconds RetimePath(const std::vector<VertexId>& path,
                     Seconds departure_time) const;

 private:
  bool Run(VertexId source, VertexId target, Seconds departure_time);

  const RoadNetwork& network_;
  const CongestionProfile& profile_;
  std::vector<Seconds> arrival_;
  std::vector<VertexId> parent_;
  std::vector<uint32_t> epoch_;
  uint32_t current_epoch_ = 0;
};

}  // namespace mtshare

#endif  // MTSHARE_TRAFFIC_CONGESTION_H_
