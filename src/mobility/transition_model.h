#ifndef MTSHARE_MOBILITY_TRANSITION_MODEL_H_
#define MTSHARE_MOBILITY_TRANSITION_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"

namespace mtshare {

/// Per-vertex transition-probability vectors (paper Sec. IV-B1 step 1):
/// B[i][j] is the empirical probability that a historical trip starting at
/// vertex i ended inside vertex group j (groups are spatial clusters during
/// bipartite partitioning, and final map partitions afterwards).
///
/// The same statistics double as the offline-request predictor: probabilistic
/// routing (Algorithm 4 step 1) sums them over direction-compatible
/// destination groups.
class TransitionModel {
 public:
  /// Builds raw frequencies from historical trips; `vertex_group` holds a
  /// group id per vertex, values in [0, num_groups). Vertices with no
  /// observed trips get the *global* destination-group distribution (the
  /// best prior available).
  static TransitionModel Build(int32_t num_vertices, int32_t num_groups,
                               const std::vector<int32_t>& vertex_group,
                               const std::vector<OdPair>& trips);

  int32_t num_vertices() const {
    return static_cast<int32_t>(trip_counts_.size());
  }
  int32_t num_groups() const { return num_groups_; }

  /// Row of transition probabilities for vertex v (size num_groups,
  /// sums to ~1).
  const double* Row(VertexId v) const {
    return rows_.data() + static_cast<size_t>(v) * num_groups_;
  }

  double Probability(VertexId v, int32_t group) const {
    return Row(v)[group];
  }

  /// Number of historical trips observed departing from v.
  int64_t TripCount(VertexId v) const { return trip_counts_[v]; }
  int64_t total_trips() const { return total_trips_; }

  /// Probability mass flowing from each of `vertices` into any group of
  /// `groups`: out[i] is vertices[i]'s row summed over `groups` in the
  /// order given, from 0.0. Rows are summed four at a time; each sum
  /// still runs in that order, so it keeps its bits.
  void MassTowards(std::span<const VertexId> vertices,
                   std::span<const int32_t> groups, double* out) const;

  size_t MemoryBytes() const {
    return rows_.size() * sizeof(double) + trip_counts_.size() * sizeof(int64_t);
  }

 private:
  int32_t num_groups_ = 0;
  std::vector<double> rows_;  // row-major num_vertices x num_groups
  std::vector<int64_t> trip_counts_;
  int64_t total_trips_ = 0;
};

}  // namespace mtshare

#endif  // MTSHARE_MOBILITY_TRANSITION_MODEL_H_
