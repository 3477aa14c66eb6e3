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

std::vector<PartitionId> PartitionFilter::Filter(VertexId from,
                                                 VertexId to) const {
  const PartitionId pz = partitioning_.PartitionOf(from);
  const PartitionId pz1 = partitioning_.PartitionOf(to);
  std::vector<PartitionId> kept;
  kept.push_back(pz);
  if (pz1 != pz) kept.push_back(pz1);
  if (pz == pz1) {
    // Intra-partition leg: nothing to prune against.
    return kept;
  }

  const VertexId lz = partitioning_.landmarks[pz];
  const VertexId lz1 = partitioning_.landmarks[pz1];
  const Point& a = network_.coord(lz);
  const Point& b = network_.coord(lz1);
  const Point leg_dir{b.x - a.x, b.y - a.y};
  const Seconds direct = landmarks_.LandmarkCost(pz, pz1);

  for (PartitionId p = 0; p < partitioning_.num_partitions(); ++p) {
    if (p == pz || p == pz1) continue;
    // Travel-direction rule: vector landmark(z) -> landmark(p) vs leg.
    const Point& c = network_.coord(partitioning_.landmarks[p]);
    const Point via_dir{c.x - a.x, c.y - a.y};
    if (DirectionCosine(via_dir, leg_dir) < lambda_) continue;
    // Travel-cost rule: detour via p within (1 + kEpsilon) of direct.
    const Seconds via = landmarks_.LandmarkCost(pz, p) +
                        landmarks_.LandmarkCost(p, pz1);
    if (via > (1.0 + kEpsilon) * direct) continue;
    kept.push_back(p);
  }
  return kept;
}

void PartitionFilter::AddToMask(const std::vector<PartitionId>& partitions,
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
