#include "routing/upward_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "common/random.h"
#include "graph/graph_generators.h"

namespace mtshare {
namespace {

// The kernel's contract, which LastStopBuckets' budget cutoff and every
// meet rely on: a run with cutoff c reaches exactly the vertices whose
// exhaustive-run distance is <= c, with the same (exact, dyadic)
// distances, lists each once in ascending rank, and labels no other
// vertex. Its labels and stall verdicts equal those of the heap-based
// upward Dijkstra it replaced, kept below as ReferenceUpwardSearch.

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

/// The heap-based upward Dijkstra: settles vertices in nondecreasing
/// distance, relaxes only arcs whose sum stays within the cutoff, and asks
/// the stall test as each vertex settles, against the labels held then.
class ReferenceUpwardSearch {
 public:
  explicit ReferenceUpwardSearch(const ContractionHierarchy& ch) : ch_(ch) {}

  void Run(VertexId source, UpwardSearch::Direction direction,
           Seconds cutoff) {
    const size_t n = static_cast<size_t>(ch_.num_vertices());
    label_.assign(n, kInfiniteCost);
    settled_.assign(n, false);
    stalled_.assign(n, false);
    if (!(cutoff >= 0.0)) return;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    label_[source] = 0.0;
    heap.push({0.0, source});
    while (!heap.empty()) {
      const auto [dist, v] = heap.top();
      heap.pop();
      if (settled_[v]) continue;
      settled_[v] = true;
      for (const ContractionHierarchy::SearchArc& arc :
           direction == UpwardSearch::kForward ? ch_.DownArcs(v)
                                               : ch_.UpArcs(v)) {
        if (label_[arc.head] + arc.cost < dist) stalled_[v] = true;
      }
      for (const ContractionHierarchy::SearchArc& arc :
           direction == UpwardSearch::kForward ? ch_.UpArcs(v)
                                               : ch_.DownArcs(v)) {
        const Seconds cand = dist + arc.cost;
        if (cand <= cutoff && cand < label_[arc.head]) {
          label_[arc.head] = cand;
          heap.push({cand, arc.head});
        }
      }
    }
  }

  bool Settled(VertexId v) const { return settled_[v]; }
  Seconds Distance(VertexId v) const { return label_[v]; }
  bool Stalled(VertexId v) const { return stalled_[v]; }

 private:
  struct Entry {
    Seconds dist;
    VertexId vertex;
    bool operator>(const Entry& other) const { return dist > other.dist; }
  };

  const ContractionHierarchy& ch_;
  std::vector<Seconds> label_;
  std::vector<bool> settled_;
  std::vector<bool> stalled_;
};

/// Distance of each vertex the run reaches (kInfiniteCost elsewhere);
/// checks that reached() lists each reached vertex once, in ascending
/// rank, and only reached vertices.
std::vector<Seconds> Settled(UpwardSearch& search,
                             const ContractionHierarchy& ch, VertexId source,
                             UpwardSearch::Direction direction,
                             Seconds cutoff) {
  search.Run(source, direction, cutoff);
  std::vector<Seconds> settled(ch.num_vertices(), kInfiniteCost);
  int32_t last_rank = -1;
  for (const VertexId v : search.reached()) {
    EXPECT_EQ(settled[v], kInfiniteCost) << "vertex " << v << " twice";
    EXPECT_GT(ch.rank(v), last_rank) << "vertex " << v << " out of order";
    EXPECT_TRUE(search.Reached(v));
    last_rank = ch.rank(v);
    settled[v] = search.Distance(v);
  }
  const auto reached = std::count_if(
      settled.begin(), settled.end(),
      [](Seconds d) { return d != kInfiniteCost; });
  for (VertexId v = 0; v < ch.num_vertices(); ++v) {
    if (search.Reached(v)) {
      EXPECT_NE(settled[v], kInfiniteCost) << "unlisted vertex " << v;
    }
  }
  EXPECT_EQ(static_cast<size_t>(reached), search.reached().size());
  return settled;
}

/// The cutoffs each comparison runs under: none reachable, the source
/// alone, the median and the farthest distance of the exhaustive run, and
/// no cutoff.
std::vector<Seconds> Cutoffs(const std::vector<Seconds>& full) {
  std::vector<Seconds> finite;
  for (Seconds d : full) {
    if (d != kInfiniteCost) finite.push_back(d);
  }
  std::sort(finite.begin(), finite.end());
  return {-1.0, 0.0, finite[finite.size() / 2], finite.back(), kInfiniteCost};
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
          Settled(search, ch, source, direction, kInfiniteCost);
      for (Seconds cutoff : Cutoffs(full)) {
        const std::vector<Seconds> got =
            Settled(search, ch, source, direction, cutoff);
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

/// From `rounds` sampled sources in both directions and under every
/// cutoff: the kernel reaches exactly the vertices the reference settles,
/// with the same labels and stall verdicts, bit for bit.
void ExpectMatchesReference(const RoadNetwork& net, int rounds) {
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  UpwardSearch search(ch);
  ReferenceUpwardSearch reference(ch);
  const int32_t n = net.num_vertices();
  Rng rng(97);
  int64_t reached = 0;
  int64_t stalled = 0;
  for (auto direction : {UpwardSearch::kForward, UpwardSearch::kBackward}) {
    for (int round = 0; round < rounds; ++round) {
      const VertexId source = VertexId(rng.NextInt(0, n - 1));
      const std::vector<Seconds> full =
          Settled(search, ch, source, direction, kInfiniteCost);
      for (Seconds cutoff : Cutoffs(full)) {
        Settled(search, ch, source, direction, cutoff);
        reference.Run(source, direction, cutoff);
        for (VertexId v = 0; v < n; ++v) {
          ASSERT_EQ(search.Reached(v), reference.Settled(v))
              << "source " << source << " vertex " << v << " at " << cutoff;
          if (!search.Reached(v)) continue;
          ++reached;
          EXPECT_EQ(search.Distance(v), reference.Distance(v)) << v;
          EXPECT_EQ(search.Stalled(v), reference.Stalled(v)) << v;
          stalled += search.Stalled(v) ? 1 : 0;
        }
      }
    }
  }
  // The comparison is not vacuous: the stall test drops some vertices.
  EXPECT_GT(stalled, 0);
  EXPECT_LT(stalled, reached);
}

TEST(UpwardSearchTest, MatchesReferenceOnOneWayGrid) {
  ExpectMatchesReference(OneWayGrid(), 20);
}

TEST(UpwardSearchTest, MatchesReferenceOnOneWayGraph) {
  ExpectMatchesReference(RandomOneWayGraph(), 20);
}

TEST(UpwardSearchTest, MatchesReferenceOnRandomGeometricGraph) {
  ExpectMatchesReference(MakeRandomGeometric(RandomGeometricOptions{}), 20);
}

// perfbench's peak_ch city: 70x70 blocks, seed 42 (~4.9k vertices).
TEST(UpwardSearchTest, MatchesReferenceOnPerfbenchCity) {
  GridCityOptions gopt;
  gopt.rows = 70;
  gopt.cols = 70;
  gopt.seed = 42;
  ExpectMatchesReference(MakeGridCity(gopt), 12);
}

}  // namespace
}  // namespace mtshare
