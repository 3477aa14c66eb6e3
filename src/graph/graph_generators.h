#ifndef MTSHARE_GRAPH_GRAPH_GENERATORS_H_
#define MTSHARE_GRAPH_GRAPH_GENERATORS_H_

#include <cstdint>

#include "graph/road_network.h"

namespace mtshare {

/// Options for a perturbed Manhattan-grid city with arterials and a fraction
/// of one-way streets. This is the library's stand-in for the OSM Chengdu
/// graph used by the paper (see DESIGN.md, substitution table): comparable
/// degree distribution (2-4), strongly connected, planar-ish.
struct GridCityOptions {
  int32_t rows = 40;
  int32_t cols = 40;
  double spacing_m = 120.0;        ///< block edge length
  double jitter_m = 20.0;          ///< coordinate perturbation
  double one_way_fraction = 0.15;  ///< streets that are one-directional
  int32_t arterial_every = 8;      ///< every k-th row/col is faster
  double arterial_speed_factor = 1.4;
  double drop_edge_fraction = 0.05;  ///< random street closures
  uint64_t seed = 7;
};

/// Generates the grid city and restricts it to its largest SCC (the
/// restriction typically removes <1% of vertices).
RoadNetwork MakeGridCity(const GridCityOptions& options);

/// Random geometric graph: n vertices uniform in a square of the given side,
/// bidirectional edges between vertices within connect_radius_m, restricted
/// to the largest SCC. Used by property tests as an unstructured topology.
struct RandomGeometricOptions {
  int32_t num_vertices = 600;
  double side_m = 4000.0;
  double connect_radius_m = 260.0;
  uint64_t seed = 13;
};

RoadNetwork MakeRandomGeometric(const RandomGeometricOptions& options);

}  // namespace mtshare

#endif  // MTSHARE_GRAPH_GRAPH_GENERATORS_H_
