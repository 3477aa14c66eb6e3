#include "partition/bipartite_partitioner.h"

#include <algorithm>
#include <cmath>

#include "clustering/kmeans.h"
#include "common/logging.h"
#include "common/random.h"

namespace mtshare {
namespace {

/// Outer iterations of the (transition-probability -> transition
/// clustering -> geo-clustering) loop; the paper iterates to convergence,
/// which on our workloads arrives within a handful of rounds.
constexpr int32_t kMaxOuterIterations = 6;

/// Canonicalizes labels to first-occurrence order so two label vectors can
/// be compared for identical groupings regardless of label permutation.
std::vector<int32_t> CanonicalizeLabels(const std::vector<int32_t>& labels) {
  std::vector<int32_t> mapping(labels.size(), -1);
  std::vector<int32_t> out(labels.size());
  int32_t next = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    int32_t l = labels[i];
    MTSHARE_CHECK(l >= 0 && l < static_cast<int32_t>(labels.size()));
    if (mapping[l] == -1) mapping[l] = next++;
    out[i] = mapping[l];
  }
  return out;
}

/// Geo k-means over the full vertex set (used for the initial kappa
/// spatial clusters).
std::vector<int32_t> GeoCluster(const RoadNetwork& network, int32_t k,
                                Rng& rng) {
  std::vector<double> coords;
  coords.reserve(static_cast<size_t>(network.num_vertices()) * 2);
  for (VertexId v = 0; v < network.num_vertices(); ++v) {
    coords.push_back(network.coord(v).x);
    coords.push_back(network.coord(v).y);
  }
  return KMeans(coords, 2, k, rng).assignment;
}

}  // namespace

MapPartitioning BipartitePartition(const RoadNetwork& network,
                                   const std::vector<OdPair>& historical_trips,
                                   const BipartiteOptions& options) {
  MTSHARE_CHECK(network.num_vertices() > 0);
  MTSHARE_CHECK(options.kappa > 0);
  MTSHARE_CHECK(options.kt > 0);
  const int32_t n = network.num_vertices();
  Rng rng(options.seed);

  // Initial spatial clusters: plain geo k-means with k = kappa.
  std::vector<int32_t> spatial = GeoCluster(network, options.kappa, rng);
  int32_t num_spatial =
      1 + *std::max_element(spatial.begin(), spatial.end());
  std::vector<int32_t> canonical = CanonicalizeLabels(spatial);

  int32_t outer_iterations = 0;
  bool converged = false;
  while (!converged && outer_iterations < kMaxOuterIterations) {
    ++outer_iterations;

    // Step 1: transition probability vectors against current clusters.
    TransitionModel transitions =
        TransitionModel::Build(n, num_spatial, spatial, historical_trips);

    // Step 2: k-means over the transition vectors -> kt transition clusters.
    std::vector<double> rows(static_cast<size_t>(n) * num_spatial);
    for (VertexId v = 0; v < n; ++v) {
      std::copy_n(transitions.Row(v), num_spatial,
                  rows.begin() + static_cast<size_t>(v) * num_spatial);
    }
    KMeansResult trans = KMeans(rows, num_spatial, options.kt, rng);

    // Step 3: geo-cluster each transition cluster into
    // floor(n_c * kappa / N + 1/2) spatial clusters.
    std::vector<std::vector<VertexId>> trans_members(trans.k_effective);
    for (VertexId v = 0; v < n; ++v) {
      trans_members[trans.assignment[v]].push_back(v);
    }
    std::vector<int32_t> new_spatial(n, -1);
    int32_t next_label = 0;
    for (const auto& members : trans_members) {
      if (members.empty()) continue;
      int32_t sub_k = std::max<int32_t>(
          1, static_cast<int32_t>(std::floor(
                 static_cast<double>(members.size()) * options.kappa / n +
                 0.5)));
      std::vector<double> coords;
      coords.reserve(members.size() * 2);
      for (VertexId v : members) {
        coords.push_back(network.coord(v).x);
        coords.push_back(network.coord(v).y);
      }
      KMeansResult geo = KMeans(coords, 2, sub_k, rng);
      for (size_t i = 0; i < members.size(); ++i) {
        new_spatial[members[i]] = next_label + geo.assignment[i];
      }
      next_label += geo.k_effective;
    }
    MTSHARE_CHECK(std::count(new_spatial.begin(), new_spatial.end(), -1) == 0);

    std::vector<int32_t> new_canonical = CanonicalizeLabels(new_spatial);
    converged = new_canonical == canonical;
    spatial = std::move(new_spatial);
    num_spatial = next_label;
    canonical = std::move(new_canonical);
  }

  MapPartitioning out;
  out.vertex_partition.assign(canonical.begin(), canonical.end());
  int32_t k = 1 + *std::max_element(canonical.begin(), canonical.end());
  out.partition_vertices.resize(k);
  for (VertexId v = 0; v < n; ++v) {
    out.partition_vertices[canonical[v]].push_back(v);
  }
  FinalizeGeometry(network, &out);
  MTSHARE_LOG(kDebug) << "bipartite partitioning: " << k << " partitions in "
                      << outer_iterations << " iterations (converged="
                      << converged << ")";
  return out;
}

}  // namespace mtshare
