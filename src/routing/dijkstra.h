#ifndef MTSHARE_ROUTING_DIJKSTRA_H_
#define MTSHARE_ROUTING_DIJKSTRA_H_

#include <cstdint>
#include <span>
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

  /// FindPath(source, target) bit for bit, read off `row`, the one-to-all
  /// travel times from `source` (CostsFrom's row, or the oracle's
  /// ResidentRow). It walks back from `target`. At each vertex v,
  /// FindPath's parent is the tight tail p (row[p] + w(p, v) == row[v])
  /// that Dijkstra pops first, which is the one with the smallest row[p].
  /// When two distinct tails tie on that smallest row[p], only the heap
  /// knows which pops first: the walk stops at v, searches source -> v (the
  /// same run as FindPath(source, target) up to v's pop) and appends the
  /// walked suffix. Arc costs are dyadic, so every comparison is exact.
  Path FindPathFromRow(VertexId source, VertexId target,
                       std::span<const Seconds> row);

  /// Whether the most recent FindPathFromRow stopped at a tie and searched
  /// its prefix.
  bool last_path_prefixed() const { return last_prefixed_; }

  /// One-to-all travel times (no mask/weights). O(E log V).
  std::vector<Seconds> CostsFrom(VertexId source);

  /// Number of vertices settled by the most recent query (test/bench hook
  /// showing how much partition filtering prunes the search space; zero
  /// after a FindPathFromRow that walked all the way).
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
  /// Pushes v, its parent, ..., `source` from the most recent Run.
  void PushParentChain(VertexId source, VertexId v,
                       std::vector<VertexId>* out) const;

  const RoadNetwork& network_;
  std::vector<double> objective_;
  std::vector<Seconds> travel_;
  std::vector<VertexId> parent_;
  std::vector<uint32_t> epoch_;
  std::vector<QueueEntry> heap_;  // Run's queue, cleared as each run starts
  uint32_t current_epoch_ = 0;
  int64_t last_settled_ = 0;
  bool last_prefixed_ = false;
};

}  // namespace mtshare

#endif  // MTSHARE_ROUTING_DIJKSTRA_H_
