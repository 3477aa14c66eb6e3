#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "partition/map_partitioning.h"

namespace mtshare {

std::vector<PartitionId> MapPartitioning::PartitionsIntersectingCircle(
    const Point& center, double radius) const {
  std::vector<PartitionId> out;
  AppendPartitionsIntersectingCircle(center, radius, &out);
  return out;
}

void MapPartitioning::AppendPartitionsIntersectingCircle(
    const Point& center, double radius, std::vector<PartitionId>* out) const {
  for (PartitionId p = 0; p < num_partitions(); ++p) {
    if (Distance(center, centroids[p]) <= radius + radius_m[p]) {
      out->push_back(p);
    }
  }
}

size_t MapPartitioning::MemoryBytes() const {
  size_t bytes = vertex_partition.size() * sizeof(PartitionId) +
                 landmarks.size() * sizeof(VertexId) +
                 centroids.size() * sizeof(Point) +
                 radius_m.size() * sizeof(double);
  for (const auto& members : partition_vertices) {
    bytes += members.size() * sizeof(VertexId);
  }
  return bytes;
}

void FinalizeGeometry(const RoadNetwork& network,
                      MapPartitioning* partitioning) {
  constexpr int32_t kMedoidSample = 8;
  const int32_t k = partitioning->num_partitions();
  partitioning->centroids.assign(k, Point{0, 0});
  partitioning->radius_m.assign(k, 0.0);
  partitioning->landmarks.assign(k, kInvalidVertex);

  for (PartitionId p = 0; p < k; ++p) {
    const auto& members = partitioning->partition_vertices[p];
    MTSHARE_CHECK(!members.empty());
    Point centroid{0, 0};
    for (VertexId v : members) {
      centroid.x += network.coord(v).x;
      centroid.y += network.coord(v).y;
    }
    centroid.x /= static_cast<double>(members.size());
    centroid.y /= static_cast<double>(members.size());
    partitioning->centroids[p] = centroid;

    double radius = 0.0;
    for (VertexId v : members) {
      radius = std::max(radius, Distance(network.coord(v), centroid));
    }
    partitioning->radius_m[p] = radius;

    // Candidate landmarks: the kMedoidSample members nearest the centroid.
    std::vector<VertexId> candidates(members.begin(), members.end());
    int32_t take = std::min<int32_t>(kMedoidSample,
                                     static_cast<int32_t>(candidates.size()));
    std::partial_sort(candidates.begin(), candidates.begin() + take,
                      candidates.end(), [&](VertexId a, VertexId b) {
                        return DistanceSquared(network.coord(a), centroid) <
                               DistanceSquared(network.coord(b), centroid);
                      });
    // Score each candidate by total distance to a bounded member sample.
    const size_t stride = std::max<size_t>(1, members.size() / 64);
    VertexId best = candidates[0];
    double best_score = kInfiniteCost;
    for (int32_t c = 0; c < take; ++c) {
      double score = 0.0;
      for (size_t i = 0; i < members.size(); i += stride) {
        score += Distance(network.coord(candidates[c]),
                          network.coord(members[i]));
      }
      if (score < best_score) {
        best_score = score;
        best = candidates[c];
      }
    }
    partitioning->landmarks[p] = best;
  }
}

MapPartitioning GridPartition(const RoadNetwork& network,
                              int32_t target_partitions) {
  MTSHARE_CHECK(target_partitions > 0);
  MTSHARE_CHECK(network.num_vertices() > 0);
  const BoundingBox& box = network.bounds();
  double width = std::max(box.Width(), 1.0);
  double height = std::max(box.Height(), 1.0);
  // Choose a cell lattice with ~target_partitions cells at the box aspect.
  double aspect = width / height;
  int32_t ny = std::max<int32_t>(
      1, static_cast<int32_t>(std::round(std::sqrt(target_partitions / aspect))));
  int32_t nx = std::max<int32_t>(
      1, static_cast<int32_t>(std::round(static_cast<double>(target_partitions) / ny)));

  auto cell_of = [&](const Point& p) {
    int32_t cx = std::clamp(
        static_cast<int32_t>((p.x - box.min.x) / width * nx), 0, nx - 1);
    int32_t cy = std::clamp(
        static_cast<int32_t>((p.y - box.min.y) / height * ny), 0, ny - 1);
    return cy * nx + cx;
  };

  // Map occupied cells to dense partition ids.
  std::vector<PartitionId> cell_partition(static_cast<size_t>(nx) * ny,
                                          kInvalidPartition);
  MapPartitioning out;
  out.vertex_partition.resize(network.num_vertices());
  for (VertexId v = 0; v < network.num_vertices(); ++v) {
    int32_t cell = cell_of(network.coord(v));
    if (cell_partition[cell] == kInvalidPartition) {
      cell_partition[cell] = static_cast<PartitionId>(
          out.partition_vertices.size());
      out.partition_vertices.emplace_back();
    }
    PartitionId p = cell_partition[cell];
    out.vertex_partition[v] = p;
    out.partition_vertices[p].push_back(v);
  }
  FinalizeGeometry(network, &out);
  return out;
}

}  // namespace mtshare
