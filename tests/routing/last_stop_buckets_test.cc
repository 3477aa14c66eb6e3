#include "routing/last_stop_buckets.h"

#include <gtest/gtest.h>

#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/graph_generators.h"
#include "routing/contraction_hierarchy.h"
#include "routing/dijkstra.h"
#include "routing/distance_oracle.h"

namespace mtshare {
namespace {

// The bucket store's contract is the CH subsystem's: BIT-IDENTICAL costs.
// Arc costs live on the dyadic grid, so deposit + sweep sums are exact and
// every comparison below is EXPECT_EQ on doubles.

RoadNetwork TestCity(uint64_t seed) {
  GridCityOptions gopt;
  gopt.rows = 9;
  gopt.cols = 9;
  gopt.one_way_fraction = 0.3;  // asymmetric distances
  gopt.seed = seed;
  return MakeGridCity(gopt);
}

/// Anchors every dirty taxi at anchors[id] (one FlushDirty from the given
/// map).
void Anchor(LastStopBuckets* buckets, const std::vector<VertexId>& anchors) {
  buckets->FlushDirty([&](TaxiId id) { return anchors[id]; });
}

/// All reached (vertex, distance) pairs of an exhaustive upward search.
std::vector<std::pair<VertexId, Seconds>> SearchSpace(
    const ContractionHierarchy& ch, VertexId source,
    UpwardSearch::Direction direction) {
  UpwardSearch search(ch);
  std::vector<std::pair<VertexId, Seconds>> space;
  search.Run(source, direction, kInfiniteCost);
  for (const VertexId v : search.reached()) {
    space.emplace_back(v, search.Distance(v));
  }
  return space;
}

/// Recomputes the stall test over `source`'s full search space, from final
/// distances: an entry is beaten when a higher-ranked reached vertex has
/// an arc into it (forward) or out of it (backward) that undercuts its
/// label. `label` must hold exactly the unbeaten entries, at their search
/// distances.
void ExpectStallPruned(const ContractionHierarchy& ch, VertexId source,
                       UpwardSearch::Direction direction,
                       const UpwardLabel& label) {
  const std::vector<std::pair<VertexId, Seconds>> space =
      SearchSpace(ch, source, direction);
  std::vector<Seconds> dist(ch.num_vertices(), kInfiniteCost);
  for (const auto& [v, d] : space) dist[v] = d;
  std::vector<Seconds> kept(ch.num_vertices(), -1.0);
  for (size_t i = 0; i < label.size(); ++i) {
    kept[label.vertices[i]] = label.costs[i];
  }
  size_t unbeaten = 0;
  for (const auto& [v, d] : space) {
    bool beaten = false;
    for (const ContractionHierarchy::SearchArc& arc :
         direction == UpwardSearch::kForward ? ch.DownArcs(v)
                                             : ch.UpArcs(v)) {
      EXPECT_GT(ch.rank(arc.head), ch.rank(v));
      if (dist[arc.head] + arc.cost < d) beaten = true;
    }
    if (beaten) {
      EXPECT_EQ(kept[v], -1.0) << "kept beaten vertex " << v;
    } else {
      ++unbeaten;
      EXPECT_EQ(kept[v], d) << "dropped or mispriced vertex " << v;
    }
  }
  EXPECT_EQ(label.size(), unbeaten);
}

TEST(LastStopBucketsTest, SweepMatchesDijkstraForEveryOriginWithinBudget) {
  RoadNetwork net = TestCity(41);
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  DijkstraSearch dijkstra(net);

  const int32_t kTaxis = 12;
  Rng rng(7);
  std::vector<VertexId> anchors(kTaxis);
  for (VertexId& a : anchors) {
    a = static_cast<VertexId>(rng.NextInt(0, net.num_vertices() - 1));
  }
  LastStopBuckets buckets(ch, kTaxis);
  Anchor(&buckets, anchors);

  // Directed ground truth anchor -> origin, per taxi.
  std::vector<std::vector<Seconds>> rows(kTaxis);
  for (TaxiId id = 0; id < kTaxis; ++id) {
    rows[id] = dijkstra.CostsFrom(anchors[id]);
  }

  const Seconds budget = 400.0;
  for (VertexId origin = 0; origin < net.num_vertices(); origin += 3) {
    buckets.Sweep(origin, budget);
    for (TaxiId id = 0; id < kTaxis; ++id) {
      const Seconds truth = rows[id][origin];
      const Seconds swept = buckets.SweptDistance(id);
      if (truth <= budget) {
        // Within budget the sweep reports the exact distance — the
        // accept/reject predicate `now + d <= deadline` cannot diverge
        // from a per-taxi oracle probe.
        EXPECT_EQ(swept, truth) << "taxi " << id << " origin " << origin;
      } else {
        // Beyond the (slack-widened) cutoff: absent or an over-budget
        // partial min; either way the exact re-check rejects it.
        EXPECT_GT(swept, budget) << "taxi " << id << " origin " << origin;
      }
    }
    // The found set is exactly the within-cutoff taxis (entries past the
    // cutoff are never recorded).
    for (TaxiId id : buckets.found()) {
      EXPECT_LE(buckets.SweptDistance(id),
                budget + LastStopBuckets::kBudgetSlack);
      EXPECT_EQ(buckets.SweptDistance(id), rows[id][origin]);
    }
  }
}

TEST(LastStopBucketsTest, DirtyChurnKeepsStoreExact) {
  RoadNetwork net = TestCity(43);
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  DijkstraSearch dijkstra(net);

  const int32_t kTaxis = 8;
  Rng rng(11);
  std::vector<VertexId> anchors(kTaxis, 0);
  LastStopBuckets buckets(ch, kTaxis);
  Anchor(&buckets, anchors);

  // Move random subsets around repeatedly; after every flush the sweep
  // must read distances from the NEW anchors only — stale deposits of a
  // moved taxi may not survive (swap-pop removal integrity).
  for (int round = 0; round < 20; ++round) {
    for (TaxiId id = 0; id < kTaxis; ++id) {
      if (rng.NextInt(0, 2) == 0) {
        anchors[id] =
            static_cast<VertexId>(rng.NextInt(0, net.num_vertices() - 1));
        buckets.MarkDirty(id);
        buckets.MarkDirty(id);  // idempotent
      }
    }
    Anchor(&buckets, anchors);
    const VertexId origin =
        static_cast<VertexId>(rng.NextInt(0, net.num_vertices() - 1));
    buckets.Sweep(origin, kInfiniteCost);
    for (TaxiId id = 0; id < kTaxis; ++id) {
      EXPECT_EQ(buckets.SweptDistance(id),
                dijkstra.CostsFrom(anchors[id])[origin])
          << "round " << round << " taxi " << id;
      EXPECT_FALSE(buckets.dirty(id));
      EXPECT_EQ(buckets.anchor(id), anchors[id]);
    }
  }
}

TEST(LastStopBucketsTest, FlushSkipsCleanAndUnmovedTaxis) {
  RoadNetwork net = TestCity(47);
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  LastStopBuckets buckets(ch, 4);
  std::vector<VertexId> anchors = {3, 14, 27, 30};
  Anchor(&buckets, anchors);
  EXPECT_EQ(buckets.stats().updates, 4);

  // Clean taxis are not re-deposited.
  Anchor(&buckets, anchors);
  EXPECT_EQ(buckets.stats().updates, 4);

  // Dirty but unmoved (marked on a schedule commit that kept the taxi in
  // place): the flush clears the flag without paying a rebuild.
  buckets.MarkDirty(1);
  Anchor(&buckets, anchors);
  EXPECT_EQ(buckets.stats().updates, 4);
  EXPECT_FALSE(buckets.dirty(1));

  // Actually moved: exactly one rebuild.
  anchors[2] = 55;
  buckets.MarkDirty(2);
  Anchor(&buckets, anchors);
  EXPECT_EQ(buckets.stats().updates, 5);
  EXPECT_EQ(buckets.anchor(2), 55);
}

TEST(LastStopBucketsTest, NegativeBudgetFindsNothing) {
  RoadNetwork net = TestCity(53);
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  LastStopBuckets buckets(ch, 2);
  Anchor(&buckets, {5, 9});
  buckets.Sweep(5, -1.0);
  EXPECT_TRUE(buckets.found().empty());
  EXPECT_EQ(buckets.SweptDistance(0), kInfiniteCost);

  // Zero budget still finds the taxi standing on the origin.
  buckets.Sweep(5, 0.0);
  ASSERT_EQ(buckets.found().size(), 1u);
  EXPECT_EQ(buckets.found()[0], 0);
  EXPECT_EQ(buckets.SweptDistance(0), 0.0);
}

TEST(LastStopBucketsTest, StatsAndMemoryAccounting) {
  RoadNetwork net = TestCity(59);
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  LastStopBuckets buckets(ch, 3);
  EXPECT_GT(buckets.MemoryBytes(), 0u);
  Anchor(&buckets, {1, 2, 3});
  buckets.Sweep(40, 600.0);
  const LastStopBucketStats& s = buckets.stats();
  EXPECT_EQ(s.updates, 3);
  EXPECT_EQ(s.sweeps, 1);
  EXPECT_EQ(s.found, static_cast<int64_t>(buckets.found().size()));
  EXPECT_GT(s.deposit_settled, 0);
  EXPECT_GT(s.sweep_settled, 0);
  EXPECT_GE(s.maintenance_ms, 0.0);
  EXPECT_GT(buckets.MemoryBytes(), 0u);
}

/// One taxi walks x -> s -> t, so the store holds x's deposits and s's and
/// t's stop labels. The meets of the pruned labels must equal Dijkstra
/// bit for bit, and each label must hold exactly the entries the stall
/// test keeps.
void ExpectLabelsMeetLikeDijkstra(const RoadNetwork& net, uint64_t seed) {
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  DijkstraSearch dijkstra(net);
  LastStopBuckets buckets(ch, 1);
  UpwardSearch loaded(ch);
  Rng rng(seed);
  int64_t pruned = 0;
  int64_t settled = 0;
  for (int round = 0; round < 40; ++round) {
    std::vector<VertexId> walk(3);
    for (VertexId& v : walk) {
      v = static_cast<VertexId>(rng.NextInt(0, net.num_vertices() - 1));
    }
    buckets.MarkDirty(0);
    buckets.Flush(0, walk[0]);
    buckets.SyncStops(0, std::span(walk).subspan(1));
    const VertexId x = walk[0], s = walk[1], t = walk[2];
    ASSERT_EQ(buckets.stops(0).size(), 2u);
    const StopLabels& from = buckets.stops(0)[0];
    const StopLabels& to = buckets.stops(0)[1];
    ASSERT_EQ(from.vertex, s);
    ASSERT_EQ(to.vertex, t);
    const std::vector<Seconds> from_x = dijkstra.CostsFrom(x);
    const std::vector<Seconds> from_s = dijkstra.CostsFrom(s);
    const std::vector<Seconds> from_t = dijkstra.CostsFrom(t);

    loaded.Load(to.in);
    EXPECT_EQ(Meet(from.out, loaded), from_s[t]) << s << "->" << t;
    EXPECT_EQ(buckets.FromAnchor(0, loaded), from_x[t]) << x << "->" << t;
    loaded.Load(from.in);
    EXPECT_EQ(Meet(to.out, loaded), from_t[s]) << t << "->" << s;
    EXPECT_EQ(buckets.FromAnchor(0, loaded), from_x[s]) << x << "->" << s;

    ExpectStallPruned(ch, x, UpwardSearch::kForward, buckets.AnchorLabel(0));
    ExpectStallPruned(ch, s, UpwardSearch::kForward, from.out);
    ExpectStallPruned(ch, s, UpwardSearch::kBackward, from.in);
    ExpectStallPruned(ch, t, UpwardSearch::kForward, to.out);
    ExpectStallPruned(ch, t, UpwardSearch::kBackward, to.in);
    for (const StopLabels* stop : {&from, &to}) {
      for (auto direction : {UpwardSearch::kForward, UpwardSearch::kBackward}) {
        const size_t full = SearchSpace(ch, stop->vertex, direction).size();
        const UpwardLabel& label =
            direction == UpwardSearch::kForward ? stop->out : stop->in;
        settled += static_cast<int64_t>(full);
        pruned += static_cast<int64_t>(full - label.size());
        // Held labels are sized exactly.
        EXPECT_EQ(label.vertices.capacity(), label.size());
        EXPECT_EQ(label.costs.capacity(), label.size());
      }
    }
  }
  // The test is not vacuous: the stall test drops entries.
  EXPECT_GT(pruned, 0);
  EXPECT_LT(pruned, settled);
}

TEST(LastStopBucketsTest, StopLabelsMeetLikeDijkstra) {
  GridCityOptions gopt;
  gopt.rows = 16;
  gopt.cols = 16;
  gopt.one_way_fraction = 0.5;
  gopt.seed = 97;
  ExpectLabelsMeetLikeDijkstra(MakeGridCity(gopt), 971);

  RandomGeometricOptions ropt;
  ropt.num_vertices = 300;
  ropt.seed = 98;
  ExpectLabelsMeetLikeDijkstra(MakeRandomGeometric(ropt), 981);
}

TEST(LastStopBucketsTest, FlushLabelsOnlyNewStops) {
  // A flush keeps a taxi's deposits and labels no stop; SyncStops labels
  // the stops an insertion reads, only those the taxi does not hold.
  RoadNetwork net = TestCity(61);
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  LastStopBuckets buckets(ch, 2);
  const auto stop_vertices = [&](TaxiId id) {
    std::vector<VertexId> out;
    for (const StopLabels& s : buckets.stops(id)) out.push_back(s.vertex);
    return out;
  };
  const auto labelled = [&] { return buckets.stats().label_settled; };
  const auto sync = [&](std::vector<VertexId> stops) {
    buckets.SyncStops(0, stops);
  };

  buckets.Flush(0, 5);
  EXPECT_EQ(buckets.anchor(0), 5);
  EXPECT_TRUE(buckets.stops(0).empty());
  EXPECT_EQ(labelled(), 0);

  sync({10, 20});
  EXPECT_EQ(stop_vertices(0), (std::vector<VertexId>{10, 20}));
  const int64_t two_stops = labelled();
  EXPECT_GT(two_stops, 0);

  // Held stops: nothing changes.
  sync({10, 20});
  EXPECT_EQ(stop_vertices(0), (std::vector<VertexId>{10, 20}));
  EXPECT_EQ(labelled(), two_stops);

  // A request inserted around the held stops labels only its two stops.
  sync({40, 10, 50, 20});
  EXPECT_EQ(stop_vertices(0), (std::vector<VertexId>{40, 10, 50, 20}));
  const int64_t four_stops = labelled();
  EXPECT_GT(four_stops, two_stops);

  // Executed stops pop from the front; the rest are kept as they were.
  const UpwardLabel kept_in = buckets.stops(0)[3].in;
  sync({50, 20});
  EXPECT_EQ(stop_vertices(0), (std::vector<VertexId>{50, 20}));
  EXPECT_EQ(labelled(), four_stops);
  EXPECT_EQ(buckets.stops(0)[1].in.vertices, kept_in.vertices);
  EXPECT_EQ(buckets.stops(0)[1].in.costs, kept_in.costs);

  // Pop and insert together: a new stop ahead of a held one.
  sync({60, 20});
  EXPECT_EQ(stop_vertices(0), (std::vector<VertexId>{60, 20}));
  EXPECT_GT(labelled(), four_stops);

  // Drained: no labels are held. The other taxi was never touched.
  sync({});
  EXPECT_TRUE(buckets.stops(0).empty());
  EXPECT_TRUE(buckets.stops(1).empty());
  EXPECT_TRUE(buckets.dirty(1));
}

/// Insertion syncs a candidate's stop labels: right after its Prime the
/// taxi holds one label pair per scheduled stop, in schedule order, each
/// equal to a fresh label of its own vertex — also when the labels it held
/// lagged its schedule. A taxi that never was a candidate holds none.
TEST(LastStopBucketsTest, PrimeHoldsOneFreshLabelPerStop) {
  RoadNetwork net = TestCity(67);
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  LastStopBuckets buckets(ch, 2);
  LastStopBuckets fresh(ch, 1);
  // Each walk is the taxi's location then its stops; consecutive walks
  // insert around held stops, pop executed ones, or both.
  const std::vector<std::vector<VertexId>> walks{
      {5, 10, 20}, {7, 10, 30, 20}, {8, 20}, {9, 40, 41, 20}, {20}};
  for (const std::vector<VertexId>& walk : walks) {
    buckets.MarkDirty(0);
    buckets.Begin(3, 60);
    buckets.Prime(0, walk);
    EXPECT_FALSE(buckets.dirty(0));
    EXPECT_EQ(buckets.anchor(0), walk[0]);
    const std::span<const StopLabels> held = buckets.stops(0);
    ASSERT_EQ(held.size(), walk.size() - 1);
    for (size_t k = 0; k < held.size(); ++k) {
      EXPECT_EQ(held[k].vertex, walk[k + 1]) << "stop " << k;
      fresh.SyncStops(0, std::span(&walk[k + 1], 1));
      const StopLabels& want = fresh.stops(0)[0];
      EXPECT_EQ(held[k].out.vertices, want.out.vertices) << "stop " << k;
      EXPECT_EQ(held[k].out.costs, want.out.costs) << "stop " << k;
      EXPECT_EQ(held[k].in.vertices, want.in.vertices) << "stop " << k;
      EXPECT_EQ(held[k].in.costs, want.in.costs) << "stop " << k;
    }
  }
  EXPECT_TRUE(buckets.stops(1).empty());
}

// ------- Insertion legs (Begin / Prime / Cost) -------

/// A 13x13 city with one-way streets, so legs are asymmetric.
RoadNetwork LegCity() {
  GridCityOptions gopt;
  gopt.rows = 13;
  gopt.cols = 13;
  gopt.seed = 25;
  gopt.one_way_fraction = 0.25;
  return MakeGridCity(gopt);
}

/// Primes `walk` as taxi `taxi`'s, as the dispatcher does after the
/// engine's notifications (a taxi whose walk changed is dirty), and
/// expects exactly one more prime.
void PrimeWalk(LastStopBuckets* store, TaxiId taxi,
               const std::vector<VertexId>& walk) {
  const int64_t primes = store->stats().primes;
  store->MarkDirty(taxi);
  store->Prime(taxi, walk);
  EXPECT_EQ(store->stats().primes - primes, 1);
}

/// Every leg the insertion DP can read for `walk` (location L then stops
/// s): L -> o, L -> s1, o/d -> s, s -> o/d, s_k -> s_k+1 and o -> d, equals
/// the exact table's bit for bit, and none is a fallback. Call it right
/// after the walk's own Prime.
void ExpectClosurePrimed(LastStopBuckets* store, DistanceOracle* table,
                         VertexId origin, VertexId dest,
                         const std::vector<VertexId>& walk) {
  const int64_t fallbacks = store->stats().fallback_queries;
  auto check = [&](VertexId a, VertexId b) {
    EXPECT_EQ(store->Cost(a, b), table->Cost(a, b)) << a << "->" << b;
  };
  check(origin, dest);
  check(walk[0], origin);
  for (size_t i = 0; i < walk.size(); ++i) {
    if (i > 0) {
      check(origin, walk[i]);
      check(dest, walk[i]);
      check(walk[i], origin);
      check(walk[i], dest);
    }
    if (i + 1 < walk.size()) check(walk[i], walk[i + 1]);
  }
  EXPECT_EQ(store->stats().fallback_queries, fallbacks);
}

TEST(LastStopBucketsTest, PrimedLegsMatchOracleBitwiseWithNoFallbacks) {
  RoadNetwork net = LegCity();
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  DistanceOracle table(net);
  LastStopBuckets store(ch, 4);
  Rng rng(251);
  const auto any_vertex = [&] {
    return VertexId(rng.NextInt(0, net.num_vertices() - 1));
  };
  for (int round = 0; round < 15; ++round) {
    const VertexId origin = any_vertex();
    const VertexId dest = any_vertex();
    store.Begin(origin, dest);
    // A few candidate walks: taxi location followed by schedule stops.
    // Most vertices are random; some recur, as an endpoint or as a vertex
    // earlier in the walk.
    for (TaxiId taxi = 0; taxi < 4; ++taxi) {
      std::vector<VertexId> walk;
      const int64_t length = rng.NextInt(1, 6);
      for (int64_t k = 0; k < length; ++k) {
        switch (rng.NextInt(0, 7)) {
          case 0:
            walk.push_back(origin);
            break;
          case 1:
            walk.push_back(dest);
            break;
          case 2:
            walk.push_back(walk.empty() ? any_vertex()
                                        : walk[rng.NextInt(0, k - 1)]);
            break;
          default:
            walk.push_back(any_vertex());
        }
      }
      PrimeWalk(&store, taxi, walk);
      ExpectClosurePrimed(&store, &table, origin, dest, walk);
    }
  }
  EXPECT_EQ(store.stats().fallback_queries, 0);
  EXPECT_EQ(store.stats().primes, 15 * 4);
  EXPECT_GT(store.stats().endpoint_settled, 0);
  EXPECT_GT(store.stats().label_entries, 0);
}

TEST(LastStopBucketsTest, IncrementalPrimingCoversLaterCandidates) {
  // One request, its candidates primed one after another, whose vertices
  // recur within a walk, across walks and on the request's endpoints.
  RoadNetwork net = LegCity();
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  DistanceOracle table(net);
  LastStopBuckets store(ch, 8);
  const VertexId origin = 3;
  const VertexId dest = 90;
  store.Begin(origin, dest);
  const std::vector<std::vector<VertexId>> walks{
      {10, 20, 30},
      {20, 30, 40},      // shares vertices with the first
      {30, 20},          // no fresh stop, only a new base-adjacent pair
      {3, 50, 60},       // the location on the origin
      {70, 90, 3},       // stops on both endpoints
      {80, 20, 40, 20},  // one stop twice
      {40, 50, 40},      // the location equal to a stop
      {3, 90, 3, 3},     // all of it at once
  };
  // The first Prime runs the request's endpoint searches; every later one
  // meets labels only.
  int64_t settled = 0;
  for (size_t w = 0; w < walks.size(); ++w) {
    PrimeWalk(&store, TaxiId(w), walks[w]);
    if (w == 0) settled = store.stats().endpoint_settled;
    EXPECT_EQ(store.stats().endpoint_settled, settled) << "walk " << w;
    ExpectClosurePrimed(&store, &table, origin, dest, walks[w]);
  }
  EXPECT_GT(settled, 0);
  EXPECT_EQ(store.stats().fallback_queries, 0);

  // Each Prime replaces the previous candidate's legs: after {10, 20, 30}
  // and then {40, 50}, the leg 20 -> 30 is outside the current closure. It
  // and d -> L (a location is only a source) are point queries, counted,
  // that still read the table's value.
  PrimeWalk(&store, 0, {10, 20, 30});
  PrimeWalk(&store, 1, {40, 50});
  EXPECT_EQ(store.Cost(20, 30), table.Cost(20, 30));
  EXPECT_EQ(store.stats().fallback_queries, 1);
  EXPECT_EQ(store.Cost(dest, 40), table.Cost(dest, 40));
  EXPECT_EQ(store.stats().fallback_queries, 2);

  // A new request forgets the last candidate's legs too.
  store.Begin(dest, origin);
  EXPECT_EQ(store.Cost(40, 50), table.Cost(40, 50));
  EXPECT_EQ(store.stats().fallback_queries, 3);
}

TEST(LastStopBucketsTest, ManyCandidatesOfOneRequestPrimeExactly) {
  // One request with 170 candidates, primed one at a time: each walk takes
  // a fresh location and six fresh stops, and its first stop repeats the
  // previous walk's last. Right after its own Prime, every leg of each
  // candidate must read the exact table's value, and the request's
  // endpoint searches run once.
  GridCityOptions gopt;
  gopt.rows = 40;
  gopt.cols = 40;
  gopt.seed = 29;
  gopt.one_way_fraction = 0.25;
  RoadNetwork net = MakeGridCity(gopt);
  ASSERT_GT(net.num_vertices(), 1300);
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  DistanceOracle table(net);
  constexpr int32_t kTaxis = 170;
  LastStopBuckets store(ch, kTaxis);

  // Vertices in a seeded order.
  std::vector<VertexId> order(net.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(291);
  rng.Shuffle(order);
  size_t next = 0;
  const VertexId origin = order[next++];
  const VertexId dest = order[next++];
  store.Begin(origin, dest);
  std::vector<VertexId> walk;
  int64_t settled = 0;
  for (TaxiId taxi = 0; taxi < kTaxis; ++taxi) {
    const VertexId last = walk.empty() ? kInvalidVertex : walk.back();
    walk.assign(1, order[next++]);
    if (taxi > 0) walk.push_back(last);
    for (int s = 0; s < 6; ++s) walk.push_back(order[next++]);
    PrimeWalk(&store, taxi, walk);
    if (taxi == 0) settled = store.stats().endpoint_settled;
    ExpectClosurePrimed(&store, &table, origin, dest, walk);
  }
  EXPECT_GT(next, 1100u);  // distinct vertices in the request
  EXPECT_EQ(store.stats().primes, kTaxis);
  EXPECT_EQ(store.stats().endpoint_settled, settled);
  EXPECT_EQ(store.stats().fallback_queries, 0);
}

}  // namespace
}  // namespace mtshare
