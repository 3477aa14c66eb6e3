#include "mobility/transition_model.h"

#include "common/logging.h"

namespace mtshare {

TransitionModel TransitionModel::Build(int32_t num_vertices,
                                       int32_t num_groups,
                                       const std::vector<int32_t>& vertex_group,
                                       const std::vector<OdPair>& trips) {
  MTSHARE_CHECK(num_vertices >= 0);
  MTSHARE_CHECK(num_groups > 0);
  MTSHARE_CHECK(static_cast<int32_t>(vertex_group.size()) == num_vertices);

  TransitionModel model;
  model.num_groups_ = num_groups;
  model.rows_.assign(static_cast<size_t>(num_vertices) * num_groups, 0.0);
  model.trip_counts_.assign(num_vertices, 0);

  std::vector<double> global(num_groups, 0.0);
  for (const OdPair& trip : trips) {
    VertexId origin = trip.first;
    VertexId dest = trip.second;
    MTSHARE_CHECK(origin >= 0 && origin < num_vertices);
    MTSHARE_CHECK(dest >= 0 && dest < num_vertices);
    int32_t group = vertex_group[dest];
    MTSHARE_CHECK(group >= 0 && group < num_groups);
    model.rows_[static_cast<size_t>(origin) * num_groups + group] += 1.0;
    ++model.trip_counts_[origin];
    global[group] += 1.0;
    ++model.total_trips_;
  }

  // Normalize the global prior.
  if (model.total_trips_ > 0) {
    for (double& g : global) g /= static_cast<double>(model.total_trips_);
  } else {
    for (double& g : global) g = 1.0 / num_groups;
  }

  for (VertexId v = 0; v < num_vertices; ++v) {
    double* row = model.rows_.data() + static_cast<size_t>(v) * num_groups;
    if (model.trip_counts_[v] == 0) {
      // No data: fall back to the city-wide destination distribution.
      for (int32_t g = 0; g < num_groups; ++g) row[g] = global[g];
      continue;
    }
    const double total = static_cast<double>(model.trip_counts_[v]);
    for (int32_t g = 0; g < num_groups; ++g) row[g] /= total;
  }
  return model;
}

void TransitionModel::MassTowards(std::span<const VertexId> vertices,
                                  std::span<const int32_t> groups,
                                  double* out) const {
  for (int32_t g : groups) MTSHARE_CHECK(g >= 0 && g < num_groups_);
  const size_t n = vertices.size();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* r0 = Row(vertices[i]);
    const double* r1 = Row(vertices[i + 1]);
    const double* r2 = Row(vertices[i + 2]);
    const double* r3 = Row(vertices[i + 3]);
    double a0 = 0.0;
    double a1 = 0.0;
    double a2 = 0.0;
    double a3 = 0.0;
    for (int32_t g : groups) {
      a0 += r0[g];
      a1 += r1[g];
      a2 += r2[g];
      a3 += r3[g];
    }
    out[i] = a0;
    out[i + 1] = a1;
    out[i + 2] = a2;
    out[i + 3] = a3;
  }
  for (; i < n; ++i) {
    const double* row = Row(vertices[i]);
    double acc = 0.0;
    for (int32_t g : groups) acc += row[g];
    out[i] = acc;
  }
}

}  // namespace mtshare
