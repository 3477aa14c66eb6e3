#include "routing/dijkstra.h"

#include <algorithm>
#include <queue>

#include "common/epoch.h"
#include "common/logging.h"

namespace mtshare {
namespace {

// When optimizing vertex weights, travel time still participates scaled by
// this factor so that among equal-weight paths the faster one wins, without
// distorting the weight objective.
constexpr double kTravelTieBreak = 1e-9;

}  // namespace

DijkstraSearch::DijkstraSearch(const RoadNetwork& network)
    : network_(network),
      objective_(network.num_vertices(), 0.0),
      travel_(network.num_vertices(), 0.0),
      parent_(network.num_vertices(), kInvalidVertex),
      epoch_(network.num_vertices(), 0) {}

void DijkstraSearch::Prepare() {
  NextEpoch(current_epoch_, epoch_);
  last_settled_ = 0;
}

bool DijkstraSearch::Run(VertexId source, VertexId target,
                         const SearchOptions& options) {
  MTSHARE_CHECK(source >= 0 && source < network_.num_vertices());
  Prepare();
  const std::vector<uint8_t>* allowed = options.allowed_vertices;
  const std::vector<double>* weights = options.vertex_weights;
  MTSHARE_CHECK(allowed == nullptr ||
                static_cast<int32_t>(allowed->size()) ==
                    network_.num_vertices());
  MTSHARE_CHECK(weights == nullptr ||
                static_cast<int32_t>(weights->size()) ==
                    network_.num_vertices());

  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  double start_objective =
      weights != nullptr ? (*weights)[source] : 0.0;
  objective_[source] = start_objective;
  travel_[source] = 0.0;
  parent_[source] = kInvalidVertex;
  epoch_[source] = current_epoch_;
  queue.push(QueueEntry{start_objective, 0.0, source});

  // Settled marker: parent epoch alone cannot distinguish
  // discovered-vs-settled, so track via a lazy-deletion check on pop.
  while (!queue.empty()) {
    QueueEntry top = queue.top();
    queue.pop();
    if (top.objective > objective_[top.vertex] ||
        epoch_[top.vertex] != current_epoch_) {
      continue;  // stale entry
    }
    // Mark settled by bumping objective comparison: first pop wins.
    ++last_settled_;
    if (top.vertex == target) return true;

    for (const Arc& arc : network_.OutArcs(top.vertex)) {
      VertexId next = arc.head;
      if (allowed != nullptr && !(*allowed)[next] && next != target) continue;
      if (top.travel + arc.cost > options.max_travel) continue;
      double step = weights != nullptr
                        ? (*weights)[next] + arc.cost * kTravelTieBreak
                        : arc.cost;
      double cand = top.objective + step;
      if (epoch_[next] != current_epoch_ || cand < objective_[next]) {
        epoch_[next] = current_epoch_;
        objective_[next] = cand;
        travel_[next] = top.travel + arc.cost;
        parent_[next] = top.vertex;
        queue.push(QueueEntry{cand, top.travel + arc.cost, next});
      }
    }
  }
  return target == kInvalidVertex;
}

Seconds DijkstraSearch::Cost(VertexId source, VertexId target,
                             const SearchOptions& options) {
  MTSHARE_CHECK(target >= 0 && target < network_.num_vertices());
  if (source == target) return 0.0;
  if (!Run(source, target, options)) return kInfiniteCost;
  return travel_[target];
}

Path DijkstraSearch::FindPath(VertexId source, VertexId target,
                              const SearchOptions& options) {
  MTSHARE_CHECK(target >= 0 && target < network_.num_vertices());
  if (source == target) return Path::Trivial(source);
  if (!Run(source, target, options)) return Path::Invalid();
  Path path;
  path.cost = travel_[target];
  path.valid = true;
  for (VertexId v = target; v != kInvalidVertex; v = parent_[v]) {
    path.vertices.push_back(v);
    if (v == source) break;
  }
  std::reverse(path.vertices.begin(), path.vertices.end());
  return path;
}

std::vector<Seconds> DijkstraSearch::CostsFrom(VertexId source) {
  Run(source, kInvalidVertex, SearchOptions{});
  std::vector<Seconds> out(network_.num_vertices(), kInfiniteCost);
  for (VertexId v = 0; v < network_.num_vertices(); ++v) {
    if (epoch_[v] == current_epoch_) out[v] = travel_[v];
  }
  return out;
}

}  // namespace mtshare
