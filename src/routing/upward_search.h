#ifndef MTSHARE_ROUTING_UPWARD_SEARCH_H_
#define MTSHARE_ROUTING_UPWARD_SEARCH_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/epoch.h"
#include "routing/contraction_hierarchy.h"

namespace mtshare {

/// A stored upward search space, structure of arrays: the search reached
/// vertices[i] at cost costs[i] (12 bytes an entry). A forward label holds
/// the costs from its source up to each vertex, a backward label the costs
/// from each vertex down to its source.
struct UpwardLabel {
  std::vector<VertexId> vertices;
  std::vector<Seconds> costs;

  size_t size() const { return vertices.size(); }
  size_t MemoryBytes() const {
    return vertices.capacity() * sizeof(VertexId) +
           costs.capacity() * sizeof(Seconds);
  }
};

/// The one upward Dijkstra under every contraction-hierarchy query: point
/// queries (ChQuery), location deposits, stop labels and sweeps
/// (LastStopBuckets), the request endpoints' searches of insertion priming
/// (InsertionCostBatch), and the upward phase of every one-to-all row
/// (PhastRow). A forward run follows UpArcs from the source, a
/// backward run follows DownArcs (down-paths into the source). Labels are
/// sums of dyadic arc costs, so settled distances are exact (see ChQuery).
///
/// Labels are epoch-stamped, so a run costs O(search space), not O(V), and
/// the heap keeps its capacity across runs. Not thread-safe.
class UpwardSearch {
 public:
  enum Direction { kForward, kBackward };

  explicit UpwardSearch(const ContractionHierarchy& ch)
      : ch_(ch), dist_(ch.num_vertices(), 0.0), epoch_(ch.num_vertices(), 0) {}

  /// Settles vertices in nondecreasing distance from `source`, calling
  /// `settle(v, dist)` once per settled vertex before relaxing its arcs,
  /// until `settle` returns false or the heap runs dry. Vertices farther
  /// than `cutoff` are never labelled, so the run settles exactly the
  /// vertices within `cutoff` (none when `cutoff` < 0).
  template <typename Settle>
  void Run(VertexId source, Direction direction, Seconds cutoff,
           Settle&& settle) {
    NextEpoch(epoch_id_, epoch_);
    while (!heap_.empty()) heap_.pop();
    if (!(cutoff >= 0.0)) return;
    Label(source, 0.0);
    while (!heap_.empty()) {
      const auto [dist, v] = heap_.top();
      heap_.pop();
      if (dist > dist_[v]) continue;  // stale: v settled at a lower label
      if (!settle(v, dist)) return;
      for (const ContractionHierarchy::SearchArc& arc :
           direction == kForward ? ch_.UpArcs(v) : ch_.DownArcs(v)) {
        const Seconds cand = dist + arc.cost;
        if (cand <= cutoff &&
            (epoch_[arc.head] != epoch_id_ || cand < dist_[arc.head])) {
          Label(arc.head, cand);
        }
      }
    }
  }

  /// Whether the last run labelled `v`; after a run to exhaustion, exactly
  /// the vertices it settled.
  bool Reached(VertexId v) const { return epoch_[v] == epoch_id_; }
  /// The last run's label of `v`, final if the run settled `v`.
  Seconds Distance(VertexId v) const { return dist_[v]; }

  /// The stall test, asked from `settle` while the run settles `v` at
  /// `dist`: whether a higher-ranked vertex u the run has reached has an
  /// arc into v (forward run) or out of v (backward run) with
  /// label(u) + cost < dist. Every vertex labelled below dist is already
  /// settled, so the answer equals the test against final labels. A
  /// stalled v has dist > its true distance, so it is never the top vertex
  /// of a shortest up-down path, whose up part is itself shortest: a label
  /// that drops it keeps every meet below exact.
  bool Stalled(VertexId v, Seconds dist, Direction direction) const {
    for (const ContractionHierarchy::SearchArc& arc :
         direction == kForward ? ch_.DownArcs(v) : ch_.UpArcs(v)) {
      if (Reached(arc.head) && dist_[arc.head] + arc.cost < dist) return true;
    }
    return false;
  }

  /// Makes `label` the last run, as if a run had settled exactly its
  /// entries: Reached and Distance then probe it in O(1).
  void Load(const UpwardLabel& label) {
    NextEpoch(epoch_id_, epoch_);
    for (size_t i = 0; i < label.size(); ++i) {
      epoch_[label.vertices[i]] = epoch_id_;
      dist_[label.vertices[i]] = label.costs[i];
    }
  }

  /// Resident bytes of the label arrays.
  size_t MemoryBytes() const {
    return dist_.size() * sizeof(Seconds) + epoch_.size() * sizeof(uint32_t);
  }

 private:
  struct HeapEntry {
    Seconds dist;
    VertexId vertex;
    // Min-heap order on distance, through std::greater<HeapEntry>.
    bool operator>(const HeapEntry& other) const { return dist > other.dist; }
  };

  void Label(VertexId v, Seconds dist) {
    epoch_[v] = epoch_id_;
    dist_[v] = dist;
    heap_.push({dist, v});
  }

  const ContractionHierarchy& ch_;
  std::vector<Seconds> dist_;
  std::vector<uint32_t> epoch_;  // dist_[v] is live iff epoch_[v] == epoch_id_
  uint32_t epoch_id_ = 0;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap_;
};

/// The shortest distance between the sources of `label` and of `other`'s
/// last run, one forward and one backward: the minimum over the vertices
/// both reached of the two costs' sum (kInfiniteCost if they share none).
/// Every shortest path is an up-down path whose top vertex both exhaustive
/// searches reach at its exact distance, and dyadic arc costs make every
/// sum exact, so the result equals Dijkstra's bit for bit.
inline Seconds Meet(const UpwardLabel& label, const UpwardSearch& other) {
  Seconds best = kInfiniteCost;
  for (size_t i = 0; i < label.size(); ++i) {
    const VertexId v = label.vertices[i];
    if (other.Reached(v)) {
      best = std::min(best, label.costs[i] + other.Distance(v));
    }
  }
  return best;
}

/// One-to-all costs by PHAST (Delling, Goldberg, Nowatzyk & Werneck,
/// IPDPS 2011): row[v] = d(source, v) for a forward row, d(v, source) for
/// a backward one, kInfiniteCost where there is no path. An UpwardSearch
/// run to exhaustion labels every vertex the source reaches upward; one
/// sweep over all vertices in descending rank then finalizes each vertex
/// from its higher-ranked neighbours, which the sweep has already
/// finalized: over DownArcs for a forward row, over UpArcs for a backward
/// one. Every shortest path is an up-down path, so the row holds the
/// minimum over the same path sums Dijkstra minimizes, and dyadic arc
/// costs make those sums exact: the row is bit-identical to Dijkstra's.
/// The exact table's rows and the landmark rows both come from here.
inline std::vector<Seconds> PhastRow(const ContractionHierarchy& ch,
                                     VertexId source,
                                     UpwardSearch::Direction direction) {
  std::vector<Seconds> row(ch.num_vertices(), kInfiniteCost);
  UpwardSearch search(ch);
  search.Run(source, direction, kInfiniteCost, [&row](VertexId v, Seconds d) {
    row[v] = d;
    return true;
  });
  const bool forward = direction == UpwardSearch::kForward;
  for (const VertexId v : ch.DescendingRankOrder()) {
    Seconds best = row[v];
    for (const ContractionHierarchy::SearchArc& arc :
         forward ? ch.DownArcs(v) : ch.UpArcs(v)) {
      best = std::min(best, row[arc.head] + arc.cost);
    }
    row[v] = best;
  }
  return row;
}

}  // namespace mtshare

#endif  // MTSHARE_ROUTING_UPWARD_SEARCH_H_
