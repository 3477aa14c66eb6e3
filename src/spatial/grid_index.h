#ifndef MTSHARE_SPATIAL_GRID_INDEX_H_
#define MTSHARE_SPATIAL_GRID_INDEX_H_

#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "graph/road_network.h"

namespace mtshare {

/// Uniform grid over the network bounding box indexing the static vertex
/// set. Supports radius queries and nearest-vertex snapping (used to map
/// request GPS points to graph vertices, as the paper does in Sec. V-A4).
/// Grid cells are also the indexing unit of the T-Share baseline.
class GridIndex {
 public:
  /// cell_size_m: grid pitch. Values near the average block length work well.
  GridIndex(const RoadNetwork& network, double cell_size_m);

  /// All vertices within radius_m of center (exact post-filter).
  std::vector<VertexId> VerticesInRadius(const Point& center,
                                         double radius_m) const;

  /// The vertex closest to the query point; kInvalidVertex on empty network.
  VertexId NearestVertex(const Point& query) const;

  /// Cell id containing a point (clamped to the grid extent).
  int32_t CellOf(const Point& p) const;

  /// Cell ids intersecting the circle (bounding-square approximation).
  std::vector<int32_t> CellsInRadius(const Point& center,
                                     double radius_m) const;

  size_t MemoryBytes() const;

 private:
  const RoadNetwork& network_;
  double cell_size_;
  Point origin_;
  int32_t cells_x_;
  int32_t cells_y_;
  std::vector<std::vector<VertexId>> buckets_;
};

/// Dynamic point index for moving objects (taxis). Objects are identified by
/// dense non-negative ids and can be relocated/removed in O(1) amortized.
/// Backing structure for the grid-based taxi indexes of the No-Sharing,
/// T-Share, and pGreedyDP baselines.
class DynamicGridIndex {
 public:
  DynamicGridIndex(const BoundingBox& bounds, double cell_size_m);

  /// Inserts or moves object `id` to `pos`.
  void Update(int32_t id, const Point& pos);
  void Remove(int32_t id);
  bool Contains(int32_t id) const;

  /// Ids of objects within radius_m of center (exact post-filter).
  std::vector<int32_t> ObjectsInRadius(const Point& center,
                                       double radius_m) const;

  int32_t size() const { return static_cast<int32_t>(positions_.size()); }

  size_t MemoryBytes() const;

 private:
  int32_t CellOf(const Point& p) const;

  double cell_size_;
  Point origin_;
  int32_t cells_x_;
  int32_t cells_y_;
  std::vector<std::vector<int32_t>> buckets_;
  std::unordered_map<int32_t, std::pair<int32_t, Point>> positions_;
};

}  // namespace mtshare

#endif  // MTSHARE_SPATIAL_GRID_INDEX_H_
