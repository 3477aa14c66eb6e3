#include "routing/upward_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "graph/graph_generators.h"

namespace mtshare {
namespace {

// The kernel's contract, which LastStopBuckets' budget cutoff and
// ChQuery's pruned backward search rely on: a run with cutoff c settles
// exactly the vertices whose exhaustive-run distance is <= c, with the
// same (exact, dyadic) distances, and labels no other vertex.

RoadNetwork OneWayGrid() {
  GridCityOptions gopt;
  gopt.rows = 9;
  gopt.cols = 9;
  gopt.one_way_fraction = 0.3;
  gopt.seed = 71;
  return MakeGridCity(gopt);
}

/// Random one-way arcs, built directly (no SCC extraction), so
/// reachability is asymmetric and partial.
RoadNetwork RandomOneWayGraph() {
  Rng rng(73);
  RoadNetwork::Builder builder;
  const int32_t n = 120;
  for (int32_t i = 0; i < n; ++i) {
    builder.AddVertex(
        Point{rng.NextUniform(0.0, 2000.0), rng.NextUniform(0.0, 2000.0)});
  }
  for (int32_t e = 0; e < 3 * n; ++e) {
    VertexId u = VertexId(rng.NextInt(0, n - 1));
    VertexId v = VertexId(rng.NextInt(0, n - 1));
    if (u != v) builder.AddEdge(u, v, rng.NextUniform(50.0, 600.0));
  }
  return builder.Build();
}

/// Distance of each vertex the run settles (kInfiniteCost elsewhere);
/// checks that each settles once, in nondecreasing distance.
std::vector<Seconds> Settled(UpwardSearch& search, int32_t n, VertexId source,
                             UpwardSearch::Direction direction,
                             Seconds cutoff) {
  std::vector<Seconds> settled(n, kInfiniteCost);
  Seconds last = 0.0;
  search.Run(source, direction, cutoff, [&](VertexId v, Seconds dist) {
    EXPECT_EQ(settled[v], kInfiniteCost) << "vertex " << v << " twice";
    EXPECT_GE(dist, last);
    settled[v] = last = dist;
    return true;
  });
  return settled;
}

void ExpectCutoffSettlesExactlyTheVerticesWithin(const RoadNetwork& net) {
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  UpwardSearch search(ch);
  const int32_t n = net.num_vertices();
  Rng rng(79);
  for (auto direction : {UpwardSearch::kForward, UpwardSearch::kBackward}) {
    for (int round = 0; round < 10; ++round) {
      const VertexId source = VertexId(rng.NextInt(0, n - 1));
      const std::vector<Seconds> full =
          Settled(search, n, source, direction, kInfiniteCost);
      std::vector<Seconds> finite;
      for (Seconds d : full) {
        if (d != kInfiniteCost) finite.push_back(d);
      }
      std::sort(finite.begin(), finite.end());
      for (Seconds cutoff : {-1.0, 0.0, finite[finite.size() / 2],
                             finite.back(), kInfiniteCost}) {
        const std::vector<Seconds> got =
            Settled(search, n, source, direction, cutoff);
        for (VertexId v = 0; v < n; ++v) {
          const bool within = full[v] != kInfiniteCost && full[v] <= cutoff;
          EXPECT_EQ(got[v], within ? full[v] : kInfiniteCost) << v;
          EXPECT_EQ(search.Reached(v), within) << v << " at " << cutoff;
          if (within) {
            EXPECT_EQ(search.Distance(v), full[v]);
          }
        }
      }
    }
  }
}

TEST(UpwardSearchTest, CutoffSettlesExactlyTheVerticesWithinOnGridCity) {
  ExpectCutoffSettlesExactlyTheVerticesWithin(OneWayGrid());
}

TEST(UpwardSearchTest, CutoffSettlesExactlyTheVerticesWithinOnOneWayGraph) {
  ExpectCutoffSettlesExactlyTheVerticesWithin(RandomOneWayGraph());
}

TEST(UpwardSearchTest, SettleReturningFalseStopsTheRun) {
  RoadNetwork net = OneWayGrid();
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  UpwardSearch search(ch);
  for (auto direction : {UpwardSearch::kForward, UpwardSearch::kBackward}) {
    int total = 0;
    search.Run(40, direction, kInfiniteCost,
               [&](VertexId, Seconds) { ++total; return true; });
    ASSERT_GT(total, 2);
    for (int k = 1; k <= total; ++k) {
      int calls = 0;
      search.Run(40, direction, kInfiniteCost,
                 [&](VertexId, Seconds) { return ++calls < k; });
      EXPECT_EQ(calls, k);
    }
  }
}

}  // namespace
}  // namespace mtshare
