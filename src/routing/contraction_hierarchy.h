#ifndef MTSHARE_ROUTING_CONTRACTION_HIERARCHY_H_
#define MTSHARE_ROUTING_CONTRACTION_HIERARCHY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/road_network.h"

namespace mtshare {

/// Preprocessing knobs. Every DistanceOracle builds its hierarchy with the
/// defaults, which are tuned for road-like graphs (degree 2-4,
/// near-planar); denser graphs still contract correctly, just with more
/// shortcuts.
struct ChOptions {
  /// Witness searches give up after settling this many vertices. A missed
  /// witness only adds a redundant shortcut (correct but larger index),
  /// never a wrong distance.
  int32_t witness_settle_limit = 500;
};

/// Counters describing one preprocessing run (surfaced through
/// Metrics::routing into the run report).
struct ChBuildStats {
  int64_t shortcuts_added = 0;
  double preprocessing_ms = 0.0;
};

/// A contraction hierarchy over a RoadNetwork (Geisberger et al.;
/// the bucket-query substrate of Laupichler & Sanders, arXiv:2311.01581).
///
/// Offline, nodes are contracted in importance order (edge difference +
/// contracted-neighbor + level heuristic with a lazy-update priority
/// queue); contracting v inserts a shortcut (u, w) for every in/out
/// neighbor pair whose shortest u->w path runs through v, guarded by a
/// limited witness search. The result is stored as two CSR search graphs:
///
///   UpArcs(v)   — arcs (v -> h) with rank[h] > rank[v]   (forward search)
///   DownArcs(v) — arcs (t -> v) with rank[t] > rank[v],
///                 stored head = t                         (backward search)
///
/// Every s-t shortest distance is realized by some up-down path, so a
/// bidirectional search that only ever goes upward in rank answers point
/// queries after settling a few hundred vertices, and one upward search
/// plus one sweep over the vertices in descending rank yields a whole
/// one-to-all row (PhastRow, over copies of the two search graphs indexed
/// by sweep position). Because arc costs live on the exact dyadic
/// grid (see QuantizeTravelCost), shortcut sums are exact and CH distances
/// are bit-identical to Dijkstra's.
///
/// Built on one thread; immutable after Build(), so safe to share across
/// query threads.
class ContractionHierarchy {
 public:
  struct SearchArc {
    VertexId head = kInvalidVertex;
    Seconds cost = 0.0;
  };

  /// Contracts the whole network. Deterministic.
  static ContractionHierarchy Build(const RoadNetwork& network,
                                    const ChOptions& options = {});

  int32_t num_vertices() const {
    return static_cast<int32_t>(rank_.size());
  }
  /// Contraction rank of v (0 = contracted first / least important).
  int32_t rank(VertexId v) const { return rank_[v]; }
  /// Every vertex, most important first (rank V-1 down to 0): the order in
  /// which PhastRow's sweep finalizes a row.
  std::span<const VertexId> DescendingRankOrder() const {
    return descending_rank_order_;
  }

  std::span<const SearchArc> UpArcs(VertexId v) const {
    return {up_arcs_.data() + up_offsets_[v],
            up_arcs_.data() + up_offsets_[v + 1]};
  }
  std::span<const SearchArc> DownArcs(VertexId v) const {
    return {down_arcs_.data() + down_offsets_[v],
            down_arcs_.data() + down_offsets_[v + 1]};
  }

  /// One search graph by sweep position i = V-1-rank(v), v's index in
  /// DescendingRankOrder(): the arcs of position i are
  /// arcs[offsets[i], offsets[i + 1]), each a SearchArc whose `head` holds
  /// the position of the arc's other end. That end outranks v, so
  /// head < i, and a sweep in ascending position reads only finalized
  /// entries.
  struct SweepGraph {
    const int32_t* offsets;
    const SearchArc* arcs;
  };
  /// DownArcs by position: the graph a forward PhastRow sweeps.
  SweepGraph ForwardSweep() const {
    return SweepOf(down_offsets_, down_arcs_);
  }
  /// UpArcs by position: the graph a backward PhastRow sweeps.
  SweepGraph BackwardSweep() const { return SweepOf(up_offsets_, up_arcs_); }

  const ChBuildStats& stats() const { return stats_; }

  /// Resident bytes of the rank arrays and the search graphs, both
  /// layouts (Tab. IV memory accounting).
  size_t MemoryBytes() const;

 private:
  SweepGraph SweepOf(const std::vector<int32_t>& offsets,
                     const std::vector<SearchArc>& arcs) const {
    const size_t n = rank_.size();
    return {offsets.data() + n + 1, arcs.data() + offsets[n]};
  }

  std::vector<int32_t> rank_;
  std::vector<VertexId> descending_rank_order_;
  // Each search graph is stored twice, in one offsets and one arcs
  // allocation: offsets[0, V] index arcs[0, E) by vertex, and
  // offsets[V + 1, 2V + 1] index arcs[E, 2E) by sweep position. Sharing
  // the allocations matters: a separately allocated position copy left
  // mid-sized blocks on the heap that glibc's dynamic mmap threshold
  // turned into up to 5 MB more peak RSS on a 70x70 grid city.
  std::vector<int32_t> up_offsets_;
  std::vector<SearchArc> up_arcs_;
  std::vector<int32_t> down_offsets_;
  std::vector<SearchArc> down_arcs_;
  ChBuildStats stats_;
};

}  // namespace mtshare

#endif  // MTSHARE_ROUTING_CONTRACTION_HIERARCHY_H_
