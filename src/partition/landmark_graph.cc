#include "partition/landmark_graph.h"

#include <algorithm>

#include "common/logging.h"
#include "routing/upward_search.h"

namespace mtshare {

LandmarkGraph::LandmarkGraph(const RoadNetwork& network,
                             const MapPartitioning& partitioning)
    : LandmarkGraph(network, partitioning,
                    ContractionHierarchy::Build(network)) {}

LandmarkGraph::LandmarkGraph(const RoadNetwork& network,
                             const MapPartitioning& partitioning,
                             const ContractionHierarchy& ch)
    : num_partitions_(partitioning.num_partitions()),
      partitioning_(&partitioning) {
  MTSHARE_CHECK(num_partitions_ > 0);
  adjacency_.resize(num_partitions_);

  // Adjacency: a road edge whose endpoints lie in different partitions
  // makes those partitions adjacent.
  std::vector<std::vector<uint8_t>> adj_matrix(
      num_partitions_, std::vector<uint8_t>(num_partitions_, 0));
  for (VertexId v = 0; v < network.num_vertices(); ++v) {
    PartitionId pv = partitioning.PartitionOf(v);
    for (const Arc& arc : network.OutArcs(v)) {
      PartitionId pw = partitioning.PartitionOf(arc.head);
      if (pv != pw) {
        adj_matrix[pv][pw] = 1;
        adj_matrix[pw][pv] = 1;
      }
    }
  }
  for (PartitionId p = 0; p < num_partitions_; ++p) {
    for (PartitionId q = 0; q < num_partitions_; ++q) {
      if (adj_matrix[p][q]) adjacency_[p].push_back(q);
    }
  }

  // Landmark geometry: each landmark's position and the length of every
  // landmark-to-landmark displacement.
  landmark_points_.resize(num_partitions_);
  for (PartitionId p = 0; p < num_partitions_; ++p) {
    landmark_points_[p] = network.coord(partitioning.landmarks[p]);
  }
  displacement_norms_.resize(static_cast<size_t>(num_partitions_) *
                             num_partitions_);
  for (PartitionId p = 0; p < num_partitions_; ++p) {
    for (PartitionId q = 0; q < num_partitions_; ++q) {
      displacement_norms_[static_cast<size_t>(p) * num_partitions_ + q] =
          VectorNorm(Displacement(p, q));
    }
  }

  // Landmark-to-landmark costs: one forward row per landmark. The same
  // row (plus a backward one) also yields every member vertex's distance
  // from/to its home landmark — the per-vertex terms of the LowerBound()
  // triangle inequality.
  MTSHARE_CHECK(ch.num_vertices() == network.num_vertices());
  costs_.assign(static_cast<size_t>(num_partitions_) * num_partitions_,
                kInfiniteCost);
  from_landmark_.assign(network.num_vertices(), kInfiniteCost);
  to_landmark_.assign(network.num_vertices(), kInfiniteCost);
  for (PartitionId p = 0; p < num_partitions_; ++p) {
    const VertexId landmark = partitioning.landmarks[p];
    const std::vector<Seconds> row =
        PhastRow(ch, landmark, UpwardSearch::kForward);
    for (PartitionId q = 0; q < num_partitions_; ++q) {
      costs_[static_cast<size_t>(p) * num_partitions_ + q] =
          row[partitioning.landmarks[q]];
    }
    const std::vector<Seconds> rev =
        PhastRow(ch, landmark, UpwardSearch::kBackward);
    for (VertexId v : partitioning.partition_vertices[p]) {
      from_landmark_[v] = row[v];
      to_landmark_[v] = rev[v];
    }
  }
}

Seconds LandmarkGraph::LowerBound(VertexId a, VertexId b) const {
  PartitionId pa = partitioning_->PartitionOf(a);
  PartitionId pb = partitioning_->PartitionOf(b);
  Seconds ll = LandmarkCost(pa, pb);
  Seconds fa = from_landmark_[a];
  Seconds tb = to_landmark_[b];
  if (ll >= kInfiniteCost || fa >= kInfiniteCost || tb >= kInfiniteCost) {
    return 0.0;  // disconnected terms make the bound meaningless
  }
  Seconds lb = ll - fa - tb;
  return lb > 0.0 ? lb : 0.0;
}

Seconds LandmarkGraph::UpperBound(VertexId a, VertexId b) const {
  PartitionId pa = partitioning_->PartitionOf(a);
  PartitionId pb = partitioning_->PartitionOf(b);
  Seconds ll = LandmarkCost(pa, pb);
  Seconds ta = to_landmark_[a];
  Seconds fb = from_landmark_[b];
  if (ll >= kInfiniteCost || ta >= kInfiniteCost || fb >= kInfiniteCost) {
    return kInfiniteCost;
  }
  return ta + ll + fb;
}

bool LandmarkGraph::Adjacent(PartitionId a, PartitionId b) const {
  const auto& nbrs = adjacency_[a];
  return std::find(nbrs.begin(), nbrs.end(), b) != nbrs.end();
}

size_t LandmarkGraph::MemoryBytes() const {
  size_t bytes = costs_.size() * sizeof(Seconds) +
                 landmark_points_.size() * sizeof(Point) +
                 displacement_norms_.size() * sizeof(double);
  bytes += (from_landmark_.size() + to_landmark_.size()) * sizeof(Seconds);
  for (const auto& nbrs : adjacency_) bytes += nbrs.size() * sizeof(PartitionId);
  return bytes;
}

}  // namespace mtshare
