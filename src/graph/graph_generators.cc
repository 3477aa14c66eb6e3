#include "graph/graph_generators.h"

#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/random.h"

namespace mtshare {
namespace {

double Jitter(Rng& rng, double amount) {
  return rng.NextUniform(-amount, amount);
}

}  // namespace

RoadNetwork MakeGridCity(const GridCityOptions& options) {
  MTSHARE_CHECK(options.rows >= 2 && options.cols >= 2);
  Rng rng(options.seed);
  RoadNetwork::Builder builder;

  auto vertex_at = [&](int32_t r, int32_t c) {
    return static_cast<VertexId>(r * options.cols + c);
  };
  for (int32_t r = 0; r < options.rows; ++r) {
    for (int32_t c = 0; c < options.cols; ++c) {
      builder.AddVertex(Point{
          c * options.spacing_m + Jitter(rng, options.jitter_m),
          r * options.spacing_m + Jitter(rng, options.jitter_m)});
    }
  }

  auto is_arterial_row = [&](int32_t r) {
    return options.arterial_every > 0 && r % options.arterial_every == 0;
  };
  auto add_street = [&](VertexId u, VertexId v, bool arterial) {
    if (rng.NextDouble() < options.drop_edge_fraction) return;
    // Every street has the nominal block length; the jitter moves vertex
    // coordinates but changes no street's length or cost.
    const double length = options.spacing_m;
    double factor = arterial ? options.arterial_speed_factor : 1.0;
    if (rng.NextDouble() < options.one_way_fraction) {
      // Randomly orient the one-way street.
      if (rng.NextDouble() < 0.5) {
        builder.AddEdge(u, v, length, factor);
      } else {
        builder.AddEdge(v, u, length, factor);
      }
    } else {
      builder.AddBidirectionalEdge(u, v, length, factor);
    }
  };

  for (int32_t r = 0; r < options.rows; ++r) {
    for (int32_t c = 0; c < options.cols; ++c) {
      if (c + 1 < options.cols) {
        add_street(vertex_at(r, c), vertex_at(r, c + 1), is_arterial_row(r));
      }
      if (r + 1 < options.rows) {
        add_street(vertex_at(r, c), vertex_at(r + 1, c), is_arterial_row(c));
      }
    }
  }

  RoadNetwork raw = builder.Build();
  return ExtractLargestScc(raw);
}

RoadNetwork MakeRandomGeometric(const RandomGeometricOptions& options) {
  MTSHARE_CHECK(options.num_vertices >= 2);
  Rng rng(options.seed);
  RoadNetwork::Builder builder;
  std::vector<Point> pts;
  pts.reserve(options.num_vertices);
  for (int32_t i = 0; i < options.num_vertices; ++i) {
    Point p{rng.NextUniform(0.0, options.side_m),
            rng.NextUniform(0.0, options.side_m)};
    pts.push_back(p);
    builder.AddVertex(p);
  }
  double r2 = options.connect_radius_m * options.connect_radius_m;
  for (int32_t i = 0; i < options.num_vertices; ++i) {
    for (int32_t j = i + 1; j < options.num_vertices; ++j) {
      double d2 = DistanceSquared(pts[i], pts[j]);
      if (d2 <= r2 && d2 > 0.0) {
        builder.AddBidirectionalEdge(i, j, std::sqrt(d2));
      }
    }
  }
  RoadNetwork raw = builder.Build();
  return ExtractLargestScc(raw);
}

}  // namespace mtshare
