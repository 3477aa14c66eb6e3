#include "routing/shortest_leg.h"

namespace mtshare {

Path ShortestLeg(const DistanceOracle& oracle, DijkstraSearch* dijkstra,
                 VertexId from, VertexId to, ShortestLegCounts* counts) {
  const std::vector<Seconds>* row = oracle.ResidentRow(from);
  if (row == nullptr) {
    ++counts->searched;
    return dijkstra->FindPath(from, to);
  }
  Path leg = dijkstra->FindPathFromRow(from, to, *row);
  ++(dijkstra->last_path_prefixed() ? counts->prefixed : counts->walked);
  return leg;
}

}  // namespace mtshare
