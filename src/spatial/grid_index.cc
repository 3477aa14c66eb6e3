#include "spatial/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace mtshare {
namespace {

int32_t ClampIndex(double offset, double cell, int32_t count) {
  // Clamped as a double: a point far off the map (or at infinity) must not
  // reach an out-of-range double-to-int conversion.
  const double idx = std::floor(offset / cell);
  if (!(idx > 0.0)) return 0;
  if (idx >= count - 1) return count - 1;
  return static_cast<int32_t>(idx);
}

}  // namespace

GridIndex::GridIndex(const RoadNetwork& network, double cell_size_m)
    : network_(network), cell_size_(cell_size_m) {
  MTSHARE_CHECK(cell_size_m > 0.0);
  const BoundingBox& box = network.bounds();
  origin_ = box.min;
  cells_x_ = std::max<int32_t>(
      1, static_cast<int32_t>(std::ceil(box.Width() / cell_size_m)) + 1);
  cells_y_ = std::max<int32_t>(
      1, static_cast<int32_t>(std::ceil(box.Height() / cell_size_m)) + 1);
  buckets_.resize(static_cast<size_t>(cells_x_) * cells_y_);
  for (VertexId v = 0; v < network.num_vertices(); ++v) {
    buckets_[CellOf(network.coord(v))].push_back(v);
  }
}

int32_t GridIndex::CellOf(const Point& p) const {
  int32_t cx = ClampIndex(p.x - origin_.x, cell_size_, cells_x_);
  int32_t cy = ClampIndex(p.y - origin_.y, cell_size_, cells_y_);
  return cy * cells_x_ + cx;
}

std::vector<int32_t> GridIndex::CellsInRadius(const Point& center,
                                              double radius_m) const {
  int32_t x_lo = ClampIndex(center.x - radius_m - origin_.x, cell_size_,
                            cells_x_);
  int32_t x_hi = ClampIndex(center.x + radius_m - origin_.x, cell_size_,
                            cells_x_);
  int32_t y_lo = ClampIndex(center.y - radius_m - origin_.y, cell_size_,
                            cells_y_);
  int32_t y_hi = ClampIndex(center.y + radius_m - origin_.y, cell_size_,
                            cells_y_);
  std::vector<int32_t> cells;
  cells.reserve(static_cast<size_t>(x_hi - x_lo + 1) * (y_hi - y_lo + 1));
  for (int32_t cy = y_lo; cy <= y_hi; ++cy) {
    for (int32_t cx = x_lo; cx <= x_hi; ++cx) {
      cells.push_back(cy * cells_x_ + cx);
    }
  }
  return cells;
}

std::vector<VertexId> GridIndex::VerticesInRadius(const Point& center,
                                                  double radius_m) const {
  std::vector<VertexId> out;
  double r2 = radius_m * radius_m;
  for (int32_t cell : CellsInRadius(center, radius_m)) {
    for (VertexId v : buckets_[cell]) {
      if (DistanceSquared(network_.coord(v), center) <= r2) out.push_back(v);
    }
  }
  return out;
}

VertexId GridIndex::NearestVertex(const Point& query) const {
  if (network_.num_vertices() == 0) return kInvalidVertex;
  int32_t qx = ClampIndex(query.x - origin_.x, cell_size_, cells_x_);
  int32_t qy = ClampIndex(query.y - origin_.y, cell_size_, cells_y_);

  VertexId best = kInvalidVertex;
  double best_d2 = std::numeric_limits<double>::infinity();
  int32_t max_ring = std::max(cells_x_, cells_y_);
  for (int32_t ring = 0; ring <= max_ring; ++ring) {
    // Once a candidate is found, one extra ring suffices: any point in a
    // farther ring is at least (ring-1)*cell_size away.
    if (best != kInvalidVertex) {
      double safe = (static_cast<double>(ring) - 1.0) * cell_size_;
      if (safe > 0.0 && safe * safe > best_d2) break;
    }
    for (int32_t cy = qy - ring; cy <= qy + ring; ++cy) {
      if (cy < 0 || cy >= cells_y_) continue;
      for (int32_t cx = qx - ring; cx <= qx + ring; ++cx) {
        if (cx < 0 || cx >= cells_x_) continue;
        bool on_ring = (std::abs(cx - qx) == ring || std::abs(cy - qy) == ring);
        if (!on_ring) continue;
        for (VertexId v : buckets_[cy * cells_x_ + cx]) {
          double d2 = DistanceSquared(network_.coord(v), query);
          if (d2 < best_d2) {
            best_d2 = d2;
            best = v;
          }
        }
      }
    }
  }
  return best;
}

size_t GridIndex::MemoryBytes() const {
  size_t bytes = buckets_.size() * sizeof(std::vector<VertexId>);
  for (const auto& bucket : buckets_) bytes += bucket.size() * sizeof(VertexId);
  return bytes;
}

DynamicGridIndex::DynamicGridIndex(const BoundingBox& bounds,
                                   double cell_size_m)
    : cell_size_(cell_size_m), origin_(bounds.min) {
  MTSHARE_CHECK(cell_size_m > 0.0);
  cells_x_ = std::max<int32_t>(
      1, static_cast<int32_t>(std::ceil(bounds.Width() / cell_size_m)) + 1);
  cells_y_ = std::max<int32_t>(
      1, static_cast<int32_t>(std::ceil(bounds.Height() / cell_size_m)) + 1);
  buckets_.resize(static_cast<size_t>(cells_x_) * cells_y_);
}

int32_t DynamicGridIndex::CellOf(const Point& p) const {
  int32_t cx = ClampIndex(p.x - origin_.x, cell_size_, cells_x_);
  int32_t cy = ClampIndex(p.y - origin_.y, cell_size_, cells_y_);
  return cy * cells_x_ + cx;
}

void DynamicGridIndex::Update(int32_t id, const Point& pos) {
  int32_t new_cell = CellOf(pos);
  auto it = positions_.find(id);
  if (it != positions_.end()) {
    int32_t old_cell = it->second.first;
    if (old_cell == new_cell) {
      it->second.second = pos;
      return;
    }
    auto& bucket = buckets_[old_cell];
    bucket.erase(std::find(bucket.begin(), bucket.end(), id));
    it->second = {new_cell, pos};
  } else {
    positions_.emplace(id, std::make_pair(new_cell, pos));
  }
  buckets_[new_cell].push_back(id);
}

void DynamicGridIndex::Remove(int32_t id) {
  auto it = positions_.find(id);
  if (it == positions_.end()) return;
  auto& bucket = buckets_[it->second.first];
  bucket.erase(std::find(bucket.begin(), bucket.end(), id));
  positions_.erase(it);
}

bool DynamicGridIndex::Contains(int32_t id) const {
  return positions_.count(id) > 0;
}

std::vector<int32_t> DynamicGridIndex::ObjectsInRadius(const Point& center,
                                                       double radius_m) const {
  std::vector<int32_t> out;
  double r2 = radius_m * radius_m;
  int32_t x_lo = ClampIndex(center.x - radius_m - origin_.x, cell_size_,
                            cells_x_);
  int32_t x_hi = ClampIndex(center.x + radius_m - origin_.x, cell_size_,
                            cells_x_);
  int32_t y_lo = ClampIndex(center.y - radius_m - origin_.y, cell_size_,
                            cells_y_);
  int32_t y_hi = ClampIndex(center.y + radius_m - origin_.y, cell_size_,
                            cells_y_);
  for (int32_t cy = y_lo; cy <= y_hi; ++cy) {
    for (int32_t cx = x_lo; cx <= x_hi; ++cx) {
      for (int32_t id : buckets_[cy * cells_x_ + cx]) {
        if (DistanceSquared(positions_.at(id).second, center) <= r2) {
          out.push_back(id);
        }
      }
    }
  }
  return out;
}

size_t DynamicGridIndex::MemoryBytes() const {
  size_t bytes = buckets_.size() * sizeof(std::vector<int32_t>);
  for (const auto& bucket : buckets_) bytes += bucket.size() * sizeof(int32_t);
  bytes += positions_.size() *
           (sizeof(int32_t) + sizeof(std::pair<int32_t, Point>) + 16);
  return bytes;
}

}  // namespace mtshare
