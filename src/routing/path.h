#ifndef MTSHARE_ROUTING_PATH_H_
#define MTSHARE_ROUTING_PATH_H_

#include <vector>

#include "common/types.h"

namespace mtshare {

/// A travel path: vertex sequence plus its total travel time. An invalid
/// path (no route found) has valid == false and infinite cost.
struct Path {
  std::vector<VertexId> vertices;
  Seconds cost = kInfiniteCost;
  bool valid = false;

  static Path Invalid() { return Path{}; }

  /// A zero-cost path standing still at `v`.
  static Path Trivial(VertexId v) { return Path{{v}, 0.0, true}; }

  bool empty() const { return vertices.empty(); }
  VertexId front() const { return vertices.front(); }
  VertexId back() const { return vertices.back(); }
};

/// Appends `leg` to `route` in place. Requires route->back() == leg.front();
/// the shared vertex appears once. An invalid route or leg leaves `route`
/// invalid. This is the ⋈ operator of paper Algorithms 3 and 4.
void AppendPath(Path* route, const Path& leg);

}  // namespace mtshare

#endif  // MTSHARE_ROUTING_PATH_H_
