#ifndef MTSHARE_ROUTING_SHORTEST_LEG_H_
#define MTSHARE_ROUTING_SHORTEST_LEG_H_

#include <cstdint>

#include "routing/dijkstra.h"
#include "routing/distance_oracle.h"
#include "routing/path.h"

namespace mtshare {

/// How ShortestLeg built its legs.
struct ShortestLegCounts {
  /// Walked back to the source through its resident exact-table row.
  int64_t walked = 0;
  /// Walked to a tie, with the prefix up to it searched.
  int64_t prefixed = 0;
  /// Searched by Dijkstra because the source had no resident row (every
  /// leg on the CH backend).
  int64_t searched = 0;
};

/// dijkstra->FindPath(from, to) bit for bit, unrestricted: walked back
/// through `from`'s resident exact-table row when the oracle holds one
/// (DijkstraSearch::FindPathFromRow), else searched. Reading a resident
/// row fills nothing and ticks no oracle counter. Adds the leg to
/// `counts`. The dispatcher's committed legs and Algorithm 3's
/// unrestricted retry both come from here (DESIGN.md §5).
Path ShortestLeg(const DistanceOracle& oracle, DijkstraSearch* dijkstra,
                 VertexId from, VertexId to, ShortestLegCounts* counts);

}  // namespace mtshare

#endif  // MTSHARE_ROUTING_SHORTEST_LEG_H_
