#include "sched/partition_filter.h"

#include "common/logging.h"

namespace mtshare {

PartitionFilter::PartitionFilter(const RoadNetwork& network,
                                 const MapPartitioning& partitioning,
                                 const LandmarkGraph& landmark_graph,
                                 double lambda)
    : network_(network),
      partitioning_(partitioning),
      landmarks_(landmark_graph),
      lambda_(lambda) {
  MTSHARE_CHECK(lambda >= -1.0 && lambda <= 1.0);
}

void PartitionFilter::Filter(VertexId from, VertexId to,
                             std::vector<PartitionId>* kept) const {
  const PartitionId pz = partitioning_.PartitionOf(from);
  const PartitionId pz1 = partitioning_.PartitionOf(to);
  kept->clear();
  kept->push_back(pz);
  if (pz == pz1) {
    // Intra-partition leg: nothing to prune against.
    return;
  }
  kept->push_back(pz1);

  const Point leg_dir = landmarks_.Displacement(pz, pz1);
  const double leg_norm = landmarks_.DisplacementNorm(pz, pz1);
  const Seconds direct = landmarks_.LandmarkCost(pz, pz1);

  for (PartitionId p = 0; p < partitioning_.num_partitions(); ++p) {
    if (p == pz || p == pz1) continue;
    // Travel-direction rule: vector landmark(z) -> landmark(p) vs leg.
    if (CosineFromNorms(landmarks_.Displacement(pz, p),
                        landmarks_.DisplacementNorm(pz, p), leg_dir,
                        leg_norm) < lambda_) {
      continue;
    }
    // Travel-cost rule: detour via p within (1 + kEpsilon) of direct.
    const Seconds via = landmarks_.LandmarkCost(pz, p) +
                        landmarks_.LandmarkCost(p, pz1);
    if (via > (1.0 + kEpsilon) * direct) continue;
    kept->push_back(p);
  }
}

void PartitionFilter::AddToMask(std::span<const PartitionId> partitions,
                                std::vector<uint8_t>* mask) const {
  MTSHARE_CHECK(static_cast<int32_t>(mask->size()) ==
                network_.num_vertices());
  for (PartitionId p : partitions) {
    for (VertexId v : partitioning_.partition_vertices[p]) {
      (*mask)[v] = 1;
    }
  }
}

double PartitionFilter::RetainedVertexFraction(
    const std::vector<PartitionId>& kept) const {
  size_t retained = 0;
  for (PartitionId p : kept) {
    retained += partitioning_.partition_vertices[p].size();
  }
  return static_cast<double>(retained) /
         static_cast<double>(network_.num_vertices());
}

}  // namespace mtshare
