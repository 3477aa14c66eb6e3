#include "routing/ch_query.h"

#include <algorithm>

namespace mtshare {

ChQuery::ChQuery(const ContractionHierarchy& ch)
    : forward_(ch), backward_(ch) {}

Seconds ChQuery::Cost(VertexId source, VertexId target) {
  ++stats_.point_queries;
  if (source == target) return 0.0;

  // Forward upward search from the source, run to exhaustion. Upward search
  // spaces are tiny (hundreds of vertices on road-like graphs), and final
  // distances let the backward pass prune against an exact best-so-far.
  forward_.Run(source, UpwardSearch::kForward, kInfiniteCost,
               [&](VertexId, Seconds) {
                 ++stats_.upward_settled;
                 return true;
               });

  // Backward upward search from the target over the down-graph, stopped
  // once it can no longer beat the best meeting point.
  Seconds best = kInfiniteCost;
  backward_.Run(target, UpwardSearch::kBackward, kInfiniteCost,
                [&](VertexId v, Seconds dist) {
                  if (dist >= best) return false;
                  ++stats_.upward_settled;
                  if (forward_.Reached(v)) {
                    best = std::min(best, forward_.Distance(v) + dist);
                  }
                  return true;
                });
  return best;
}

size_t ChQuery::MemoryBytes() const {
  return forward_.MemoryBytes() + backward_.MemoryBytes();
}

}  // namespace mtshare
