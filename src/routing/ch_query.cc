#include "routing/ch_query.h"

namespace mtshare {

ChQuery::ChQuery(const ContractionHierarchy& ch)
    : forward_(ch), backward_(ch) {}

Seconds ChQuery::Cost(VertexId source, VertexId target) {
  ++stats_.point_queries;
  if (source == target) return 0.0;

  // Both upward searches run to exhaustion (upward search spaces are tiny,
  // hundreds of vertices on road-like graphs), then meet: every shortest
  // path is an up-down path whose top vertex both reach at its exact
  // distance.
  forward_.Run(source, UpwardSearch::kForward, kInfiniteCost);
  backward_.Run(target, UpwardSearch::kBackward, kInfiniteCost);
  stats_.upward_settled += static_cast<int64_t>(forward_.reached().size() +
                                                backward_.reached().size());
  return Meet(forward_, backward_);
}

size_t ChQuery::MemoryBytes() const {
  return forward_.MemoryBytes() + backward_.MemoryBytes();
}

}  // namespace mtshare
