#include "routing/dijkstra.h"

#include <algorithm>
#include <functional>

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

  // A binary min-heap with std::priority_queue's exact push and pop
  // sequence, kept in a member so that its capacity outlives the run.
  const std::greater<QueueEntry> later;
  auto push = [&](const QueueEntry& entry) {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), later);
  };
  heap_.clear();
  double start_objective =
      weights != nullptr ? (*weights)[source] : 0.0;
  objective_[source] = start_objective;
  travel_[source] = 0.0;
  parent_[source] = kInvalidVertex;
  epoch_[source] = current_epoch_;
  push(QueueEntry{start_objective, 0.0, source});

  // Settled marker: parent epoch alone cannot distinguish
  // discovered-vs-settled, so track via a lazy-deletion check on pop.
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    QueueEntry top = heap_.back();
    heap_.pop_back();
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
        push(QueueEntry{cand, top.travel + arc.cost, next});
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
  PushParentChain(source, target, &path.vertices);
  std::reverse(path.vertices.begin(), path.vertices.end());
  return path;
}

Path DijkstraSearch::FindPathFromRow(VertexId source, VertexId target,
                                     std::span<const Seconds> row) {
  MTSHARE_CHECK(source >= 0 && source < network_.num_vertices());
  MTSHARE_CHECK(target >= 0 && target < network_.num_vertices());
  MTSHARE_CHECK(static_cast<int32_t>(row.size()) == network_.num_vertices());
  last_settled_ = 0;
  last_prefixed_ = false;
  if (source == target) return Path::Trivial(source);
  if (row[target] == kInfiniteCost) return Path::Invalid();
  Path path;
  path.cost = row[target];
  path.valid = true;
  // Built target-first, as FindPath builds it from the parent chain.
  VertexId v = target;
  path.vertices.push_back(v);
  while (v != source) {
    const Seconds at_v = row[v];
    VertexId parent = kInvalidVertex;
    Seconds parent_cost = kInfiniteCost;
    bool tie = false;
    for (const Arc& arc : network_.InArcs(v)) {
      const Seconds d = row[arc.head];  // an in-arc's head is its tail
      if (d + arc.cost != at_v || d > parent_cost) continue;
      if (d < parent_cost) {
        parent = arc.head;
        parent_cost = d;
        tie = false;
      } else if (arc.head != parent) {  // a parallel arc is no tie
        tie = true;
      }
    }
    MTSHARE_CHECK(parent != kInvalidVertex);
    if (tie) {
      last_prefixed_ = true;
      path.vertices.pop_back();
      MTSHARE_CHECK(Run(source, v, SearchOptions{}));
      PushParentChain(source, v, &path.vertices);
      break;
    }
    v = parent;
    path.vertices.push_back(v);
  }
  std::reverse(path.vertices.begin(), path.vertices.end());
  return path;
}

void DijkstraSearch::PushParentChain(VertexId source, VertexId v,
                                     std::vector<VertexId>* out) const {
  for (; v != kInvalidVertex; v = parent_[v]) {
    out->push_back(v);
    if (v == source) break;
  }
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
