#ifndef MTSHARE_ROUTING_DIJKSTRA_H_
#define MTSHARE_ROUTING_DIJKSTRA_H_

#include <cstdint>
#include <vector>

#include "graph/road_network.h"
#include "routing/path.h"

namespace mtshare {

/// Constraints applied to a single shortest-path query.
struct SearchOptions {
  /// When set (size == num_vertices), only vertices with a nonzero entry
  /// may be expanded. This realizes the paper's "build subgraph from the
  /// retained partitions" (Algorithms 3/4) without materializing a graph.
  const std::vector<uint8_t>* allowed_vertices = nullptr;

  /// When set, the optimization objective becomes the sum of these
  /// per-vertex weights over visited vertices (plus epsilon-scaled travel
  /// time as a tie-break), while true travel seconds are still accumulated
  /// for feasibility. Used by probabilistic routing step 3 (weight 1/psi_c).
  const std::vector<double>* vertex_weights = nullptr;

  /// Prune relaxations whose accumulated *travel seconds* exceed this bound
  /// (used with vertex_weights to approximate budget-constrained
  /// max-probability routing; a heuristic, not an exact bi-criteria search).
  Seconds max_travel = kInfiniteCost;
};

/// Reusable Dijkstra engine. Buffers are epoch-stamped, so repeated queries
/// do not pay O(V) reinitialization; the matching pipeline issues tens of
/// queries per request (candidate x schedule instance x leg).
///
/// Not thread-safe; create one per thread.
class DijkstraSearch {
 public:
  explicit DijkstraSearch(const RoadNetwork& network);

  /// Travel time of the shortest s->t path (kInfiniteCost if unreachable).
  Seconds Cost(VertexId source, VertexId target,
               const SearchOptions& options = {});

  /// Full shortest path with vertices.
  Path FindPath(VertexId source, VertexId target,
                const SearchOptions& options = {});

  /// One-to-all travel times (no mask/weights). O(E log V).
  std::vector<Seconds> CostsFrom(VertexId source);

  /// Number of vertices settled by the most recent query (test/bench hook
  /// showing how much partition filtering prunes the search space).
  int64_t last_settled_count() const { return last_settled_; }

 private:
  struct QueueEntry {
    double objective;
    Seconds travel;
    VertexId vertex;
    bool operator>(const QueueEntry& other) const {
      return objective > other.objective;
    }
  };

  void Prepare();
  /// Runs the search until `target` is settled (or queue exhaustion when
  /// target == kInvalidVertex). Returns true if target was settled.
  bool Run(VertexId source, VertexId target, const SearchOptions& options);

  const RoadNetwork& network_;
  std::vector<double> objective_;
  std::vector<Seconds> travel_;
  std::vector<VertexId> parent_;
  std::vector<uint32_t> epoch_;
  uint32_t current_epoch_ = 0;
  int64_t last_settled_ = 0;
};

}  // namespace mtshare

#endif  // MTSHARE_ROUTING_DIJKSTRA_H_
