#ifndef MTSHARE_ROUTING_UPWARD_SEARCH_H_
#define MTSHARE_ROUTING_UPWARD_SEARCH_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
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

/// The one upward search under every contraction-hierarchy query. Each
/// run belongs to one of three owners: DistanceOracle (a pooled forward/
/// backward pair per point query), LastStopBuckets (location deposits,
/// stop labels, sweeps and the request endpoints' searches of insertion
/// priming) and PhastRow (the upward phase of every one-to-all row). A
/// forward run follows UpArcs from the source, a backward run follows
/// DownArcs (down-paths into the source).
///
/// Every arc of either search graph points to a higher rank, so the graph
/// a run explores is acyclic in rank order: a run relaxes the vertices it
/// labels in ascending rank, and each vertex's label is final when it is
/// relaxed, since every arc into it comes from a lower rank, relaxed
/// before. There is no heap. The pending vertices (labelled, not yet
/// relaxed) are bits of a bitset over ranks, and a summary bitset holds
/// one bit per bitset word, set while that word is nonzero, so the search
/// for the next pending rank skips 64 empty words (4,096 ranks) at a
/// time. Each label is the minimum over the same arc sums Dijkstra
/// compares, and arc costs are dyadic (QuantizeTravelCost), so every sum
/// is exact and so is every label.
///
/// Labels are epoch-stamped and every run drains its bitset, so a run
/// costs O(search space + V / 4096), not O(V). Not thread-safe.
class UpwardSearch {
 public:
  enum Direction { kForward, kBackward };

  explicit UpwardSearch(const ContractionHierarchy& ch)
      : ch_(ch),
        dist_(ch.num_vertices(), 0.0),
        epoch_(ch.num_vertices(), 0),
        pending_((ch.num_vertices() + 63) / 64, 0),
        summary_((pending_.size() + 63) / 64, 0) {}

  /// Labels exactly the vertices within `cutoff` of `source` (none when
  /// `cutoff` < 0) with their exact distances, and lists them in
  /// reached() in ascending rank. A vertex farther than `cutoff` is never
  /// labelled: every prefix of an upward path within `cutoff` is itself
  /// within it.
  void Run(VertexId source, Direction direction, Seconds cutoff) {
    NextEpoch(epoch_id_, epoch_);
    reached_.clear();
    direction_ = direction;
    if (!(cutoff >= 0.0)) return;
    const std::span<const VertexId> by_rank = ch_.DescendingRankOrder();
    const size_t top = by_rank.size() - 1;  // by_rank[top - r] has rank r
    Label(source, 0.0);
    size_t word = static_cast<size_t>(ch_.rank(source)) >> 6;
    for (;;) {
      uint64_t bits = pending_[word];
      if (bits == 0) {
        // Every rank through this word is relaxed, so the next pending
        // one is in the first word the summary marks.
        size_t s = word >> 6;
        while (s < summary_.size() && summary_[s] == 0) ++s;
        if (s == summary_.size()) return;
        word = (s << 6) | static_cast<size_t>(std::countr_zero(summary_[s]));
        bits = pending_[word];
      }
      const size_t rank =
          (word << 6) | static_cast<size_t>(std::countr_zero(bits));
      pending_[word] = bits & (bits - 1);
      if (pending_[word] == 0) {
        summary_[word >> 6] &= ~(uint64_t{1} << (word & 63));
      }
      const VertexId v = by_rank[top - rank];
      reached_.push_back(v);
      const Seconds dist = dist_[v];
      for (const ContractionHierarchy::SearchArc& arc :
           direction == kForward ? ch_.UpArcs(v) : ch_.DownArcs(v)) {
        const Seconds cand = dist + arc.cost;
        if (cand > cutoff) continue;
        if (epoch_[arc.head] != epoch_id_) {
          Label(arc.head, cand);
        } else if (cand < dist_[arc.head]) {
          dist_[arc.head] = cand;
        }
      }
    }
  }

  /// The vertices the last Run reached, each once, in ascending rank
  /// (empty after Load).
  std::span<const VertexId> reached() const { return reached_; }
  /// Whether the last run reached `v`.
  bool Reached(VertexId v) const { return epoch_[v] == epoch_id_; }
  /// The last run's label of `v`, exact if the run reached `v`.
  Seconds Distance(VertexId v) const { return dist_[v]; }

  /// The stall test on a vertex `v` the last Run reached: whether a
  /// higher-ranked vertex u the run reached has an arc into v (forward
  /// run) or out of v (backward run) with label(u) + cost < label(v).
  /// Every label is final once the run ends, so a stalled v has a label
  /// above its true distance; it is never the top vertex of a shortest
  /// up-down path, whose up part is itself shortest, and a label that
  /// drops it keeps every meet below exact.
  bool Stalled(VertexId v) const {
    const Seconds dist = dist_[v];
    for (const ContractionHierarchy::SearchArc& arc :
         direction_ == kForward ? ch_.DownArcs(v) : ch_.UpArcs(v)) {
      if (Reached(arc.head) && dist_[arc.head] + arc.cost < dist) return true;
    }
    return false;
  }

  /// Makes `label` the last run, as if a run had reached exactly its
  /// entries: Reached and Distance then probe it in O(1).
  void Load(const UpwardLabel& label) {
    NextEpoch(epoch_id_, epoch_);
    reached_.clear();
    for (size_t i = 0; i < label.size(); ++i) {
      epoch_[label.vertices[i]] = epoch_id_;
      dist_[label.vertices[i]] = label.costs[i];
    }
  }

  /// Resident bytes of the label arrays, the pending bitsets and the
  /// reached list.
  size_t MemoryBytes() const {
    return dist_.size() * sizeof(Seconds) + epoch_.size() * sizeof(uint32_t) +
           (pending_.size() + summary_.size()) * sizeof(uint64_t) +
           reached_.capacity() * sizeof(VertexId);
  }

 private:
  void Label(VertexId v, Seconds dist) {
    epoch_[v] = epoch_id_;
    dist_[v] = dist;
    const size_t rank = static_cast<size_t>(ch_.rank(v));
    pending_[rank >> 6] |= uint64_t{1} << (rank & 63);
    summary_[rank >> 12] |= uint64_t{1} << ((rank >> 6) & 63);
  }

  const ContractionHierarchy& ch_;
  std::vector<Seconds> dist_;
  std::vector<uint32_t> epoch_;  // dist_[v] is live iff epoch_[v] == epoch_id_
  uint32_t epoch_id_ = 0;
  Direction direction_ = kForward;
  // Bit r of pending_ marks rank r labelled but not relaxed; bit w of
  // summary_ marks pending_[w] nonzero. Both are all zero between runs.
  std::vector<uint64_t> pending_;
  std::vector<uint64_t> summary_;
  std::vector<VertexId> reached_;  // ascending rank
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

/// The same meet between the last runs of a forward search and a backward
/// one, both run to exhaustion.
inline Seconds Meet(const UpwardSearch& forward, const UpwardSearch& backward) {
  Seconds best = kInfiniteCost;
  for (const VertexId v : forward.reached()) {
    if (backward.Reached(v)) {
      best = std::min(best, forward.Distance(v) + backward.Distance(v));
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
///
/// The sweep runs over the hierarchy's position-indexed copy of the graph
/// (ContractionHierarchy::SweepGraph) into a buffer indexed the same way,
/// so it reads both in ascending address order, and gathers the buffer
/// into the vertex-indexed row at the end. Each position's minimum is
/// taken by two independent accumulators over alternate arcs; a minimum
/// of exact sums does not depend on the order it is taken in, so the row
/// keeps every bit. The buffers are local, so concurrent fills share
/// nothing.
inline std::vector<Seconds> PhastRow(const ContractionHierarchy& ch,
                                     VertexId source,
                                     UpwardSearch::Direction direction) {
  const int32_t n = ch.num_vertices();
  UpwardSearch search(ch);
  search.Run(source, direction, kInfiniteCost);
  std::vector<Seconds> by_position(n, kInfiniteCost);
  for (const VertexId v : search.reached()) {
    by_position[n - 1 - ch.rank(v)] = search.Distance(v);
  }
  const ContractionHierarchy::SweepGraph graph =
      direction == UpwardSearch::kForward ? ch.ForwardSweep()
                                          : ch.BackwardSweep();
  const int32_t* offsets = graph.offsets;
  const ContractionHierarchy::SearchArc* arcs = graph.arcs;
  Seconds* buf = by_position.data();
  for (int32_t i = 0; i < n; ++i) {
    Seconds even = buf[i];
    Seconds odd = kInfiniteCost;
    int32_t j = offsets[i];
    const int32_t end = offsets[i + 1];
    for (; j + 1 < end; j += 2) {
      even = std::min(even, buf[arcs[j].head] + arcs[j].cost);
      odd = std::min(odd, buf[arcs[j + 1].head] + arcs[j + 1].cost);
    }
    if (j < end) even = std::min(even, buf[arcs[j].head] + arcs[j].cost);
    buf[i] = std::min(even, odd);
  }
  std::vector<Seconds> row(n);
  const std::span<const VertexId> order = ch.DescendingRankOrder();
  for (int32_t i = 0; i < n; ++i) row[order[i]] = buf[i];
  return row;
}

}  // namespace mtshare

#endif  // MTSHARE_ROUTING_UPWARD_SEARCH_H_
