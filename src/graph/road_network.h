#ifndef MTSHARE_GRAPH_ROAD_NETWORK_H_
#define MTSHARE_GRAPH_ROAD_NETWORK_H_

#include <cmath>
#include <span>
#include <vector>

#include "common/types.h"
#include "geo/latlng.h"

namespace mtshare {

/// Travel costs are snapped to this grid (2^-20 s, ~1 microsecond) when a
/// network is built. Because every arc cost is then an integer multiple of
/// a power of two, and any realistic path sum stays far below 2^33 seconds,
/// every partial sum of arc costs is exactly representable in a double and
/// floating-point addition over costs is *associative*. That makes every
/// routing backend (Dijkstra rows, truncated one-to-many sweeps, and the
/// contraction-hierarchy searches, whose shortcut sums associate
/// differently) return bit-identical costs — the invariant the oracle
/// equivalence tests pin. The snap moves each arc by at most 2^-21 s of
/// travel time, far below anything the simulation can observe.
inline constexpr double kCostQuantumScale = 1048576.0;  // 2^20

/// Rounds `cost` to the nearest multiple of the cost quantum (minimum one
/// quantum, so arc costs stay strictly positive). Idempotent.
inline Seconds QuantizeTravelCost(Seconds cost) {
  double scaled = cost * kCostQuantumScale;
  // Beyond 2^53 the scaled value has no fractional part anyway (and such a
  // cost — >272 years of travel — is out of the exactness envelope).
  if (!(scaled < 9007199254740992.0)) return cost;
  double snapped = std::round(scaled);
  if (snapped < 1.0) snapped = 1.0;
  return snapped / kCostQuantumScale;
}

/// An outgoing (or incoming) road segment in adjacency order.
struct Arc {
  VertexId head = kInvalidVertex;  ///< the other endpoint
  double length_m = 0.0;           ///< segment length, meters
  Seconds cost = 0.0;              ///< travel time, seconds
};

/// Axis-aligned bounding box on the city plane.
struct BoundingBox {
  Point min;
  Point max;

  double Width() const { return max.x - min.x; }
  double Height() const { return max.y - min.y; }
  bool Contains(const Point& p) const {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y;
  }
};

/// Immutable directed road network (paper Def. 1) in CSR form with both
/// forward and reverse adjacency. Edge travel times derive from segment
/// lengths and a network-wide cruise speed (the paper evaluates with a
/// constant 15 km/h, Sec. V-A4), optionally scaled per edge.
class RoadNetwork {
 public:
  class Builder;

  /// An empty network; populate via Builder::Build().
  RoadNetwork() = default;

  int32_t num_vertices() const {
    return static_cast<int32_t>(coords_.size());
  }
  int32_t num_edges() const { return static_cast<int32_t>(fwd_arcs_.size()); }

  const Point& coord(VertexId v) const { return coords_[v]; }
  const std::vector<Point>& coords() const { return coords_; }

  /// Outgoing arcs of v.
  std::span<const Arc> OutArcs(VertexId v) const {
    return {fwd_arcs_.data() + fwd_offsets_[v],
            fwd_arcs_.data() + fwd_offsets_[v + 1]};
  }
  /// Incoming arcs of v (heads are the arc *tails*).
  std::span<const Arc> InArcs(VertexId v) const {
    return {rev_arcs_.data() + rev_offsets_[v],
            rev_arcs_.data() + rev_offsets_[v + 1]};
  }

  /// Cruise speed used to derive travel times, meters/second.
  double speed_mps() const { return speed_mps_; }

  const BoundingBox& bounds() const { return bounds_; }

  /// Approximate resident memory of the CSR structures, bytes.
  size_t MemoryBytes() const;

 private:
  std::vector<Point> coords_;
  std::vector<int32_t> fwd_offsets_;
  std::vector<Arc> fwd_arcs_;
  std::vector<int32_t> rev_offsets_;
  std::vector<Arc> rev_arcs_;
  double speed_mps_ = 15.0 * 1000.0 / 3600.0;
  BoundingBox bounds_;
};

/// Accumulates vertices/edges, then freezes them into CSR.
class RoadNetwork::Builder {
 public:
  /// speed_mps: network cruise speed (default 15 km/h as in the paper).
  explicit Builder(double speed_mps = 15.0 * 1000.0 / 3600.0);

  VertexId AddVertex(const Point& coord);

  /// Adds directed edge u -> v. speed_factor scales the cruise speed on this
  /// edge (e.g., 1.3 for an arterial). Requires valid vertex ids and
  /// length_m > 0.
  void AddEdge(VertexId u, VertexId v, double length_m,
               double speed_factor = 1.0);

  /// Convenience: AddEdge both ways.
  void AddBidirectionalEdge(VertexId u, VertexId v, double length_m,
                            double speed_factor = 1.0);

  int32_t num_vertices() const { return static_cast<int32_t>(coords_.size()); }

  RoadNetwork Build();

 private:
  struct RawEdge {
    VertexId u;
    VertexId v;
    double length_m;
    Seconds cost;
  };

  double speed_mps_;
  std::vector<Point> coords_;
  std::vector<RawEdge> edges_;
};

/// Vertex set restriction: returns the subnetwork induced by the largest
/// strongly connected component, plus the mapping old vertex -> new vertex
/// (kInvalidVertex for dropped vertices). Routing layers require strong
/// connectivity so every pickup can reach every dropoff.
RoadNetwork ExtractLargestScc(const RoadNetwork& network,
                              std::vector<VertexId>* old_to_new = nullptr);

/// Strongly-connected-component ids per vertex (iterative Tarjan);
/// returns the number of components.
int32_t StronglyConnectedComponents(const RoadNetwork& network,
                                    std::vector<int32_t>* component_ids);

}  // namespace mtshare

#endif  // MTSHARE_GRAPH_ROAD_NETWORK_H_
