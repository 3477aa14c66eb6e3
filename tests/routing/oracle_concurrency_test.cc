#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "common/random.h"
#include "graph/graph_generators.h"
#include "routing/dijkstra.h"
#include "routing/distance_oracle.h"
#include "routing/upward_search.h"

namespace mtshare {
namespace {

// Runs in mtshare_thread_tests so the tsan preset checks it: many threads
// hammer one oracle with point queries and one- and many-fan CostFans
// batches at once, as concurrent RunScenario calls on one system do. On the
// CH backend the engine pool must hand every thread its own ChQuery
// (stateful buffers), which answers fans pair by pair; on the exact table,
// threads race to fill the same cold rows, each by a PhastRow over the
// shared hierarchy, and each row must still be filled exactly once. The counters must not race, and every
// answer must equal the precomputed Dijkstra reference bit for bit.
void ExpectConcurrentQueriesMatchDijkstra(OracleBackend backend) {
  GridCityOptions gopt;
  gopt.rows = 10;
  gopt.cols = 10;
  gopt.one_way_fraction = 0.2;
  gopt.seed = 67;
  RoadNetwork net = MakeGridCity(gopt);
  OracleOptions oopt;
  oopt.backend = backend;
  DistanceOracle oracle(net, oopt);
  ASSERT_EQ(oracle.backend(), backend);

  // Reference rows, computed before any threads start and without the
  // oracle, so its exact-table rows are all still cold.
  const int32_t n = net.num_vertices();
  DijkstraSearch dijkstra(net);
  std::vector<std::vector<Seconds>> reference(n);
  for (VertexId v = 0; v < n; ++v) reference[v] = dijkstra.CostsFrom(v);
  ASSERT_EQ(oracle.row_misses(), 0);

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 40;
  std::atomic<int> mismatches{0};
  std::atomic<int> same_vertex{0};
  // Sources whose rows each worker's queries read; each worker writes
  // only its own entry.
  std::vector<std::vector<VertexId>> row_sources(kThreads);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(671 + uint64_t(w));
      std::vector<VertexId> targets;
      std::vector<CostFan> fans;
      std::vector<Seconds> got;
      for (int round = 0; round < kRoundsPerThread; ++round) {
        VertexId s = VertexId(rng.NextInt(0, n - 1));
        VertexId t = VertexId(rng.NextInt(0, n - 1));
        if (oracle.Cost(s, t) != reference[s][t]) mismatches.fetch_add(1);
        if (s == t) same_vertex.fetch_add(1);  // answered without an engine

        targets.clear();
        for (int i = 0; i < 6; ++i) {
          targets.push_back(VertexId(rng.NextInt(0, n - 1)));
        }
        const CostFan one{s, targets};
        oracle.CostFans({&one, 1}, &got);
        row_sources[w].push_back(s);
        for (size_t i = 0; i < targets.size(); ++i) {
          if (got[i] != reference[s][targets[i]]) mismatches.fetch_add(1);
        }

        // Three fans over prefixes of the same targets, so targets repeat
        // across fans.
        fans.clear();
        for (size_t i = 0; i < 3; ++i) {
          const VertexId source = VertexId(rng.NextInt(0, n - 1));
          fans.push_back({source, std::span(targets).first(2 + 2 * i)});
          row_sources[w].push_back(source);
        }
        oracle.CostFans(fans, &got);
        size_t at = 0;
        for (const CostFan& fan : fans) {
          for (VertexId t : fan.targets) {
            if (got[at++] != reference[fan.source][t]) mismatches.fetch_add(1);
          }
        }
        if (at != got.size()) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Counter sanity: every round issued 1 point + 1 one-fan + 3 fan
  // queries.
  EXPECT_EQ(oracle.queries(), int64_t(kThreads) * kRoundsPerThread * 5);
  EXPECT_EQ(oracle.batch_queries(), int64_t(kThreads) * kRoundsPerThread * 2);
  if (backend == OracleBackend::kExact) {
    // Every row any worker read was filled once, however many raced for it.
    std::set<VertexId> distinct;
    for (const std::vector<VertexId>& sources : row_sources) {
      distinct.insert(sources.begin(), sources.end());
    }
    EXPECT_EQ(oracle.row_misses(), int64_t(distinct.size()));
  } else {
    // The CH answers fans pair by pair: one point query per target, plus
    // each round's point query unless its two vertices coincide.
    ChQueryStats stats = oracle.ch_query_stats();
    EXPECT_EQ(stats.point_queries,
              int64_t(kThreads) * kRoundsPerThread * (1 + 6 + 2 + 4 + 6) -
                  same_vertex.load());
    EXPECT_GT(stats.upward_settled, 0);
  }
}

// ResidentRow reads rows that other threads are filling. Each read must
// return null or the complete row, never one that is partly written.
TEST(ExactConcurrencyTest, ResidentRowIsNullOrComplete) {
  GridCityOptions gopt;
  gopt.rows = 10;
  gopt.cols = 10;
  gopt.one_way_fraction = 0.2;
  gopt.seed = 68;
  RoadNetwork net = MakeGridCity(gopt);
  OracleOptions oopt;
  oopt.backend = OracleBackend::kExact;
  DistanceOracle oracle(net, oopt);
  const int32_t n = net.num_vertices();
  std::vector<std::vector<Seconds>> reference(n);
  for (VertexId v = 0; v < n; ++v) {
    reference[v] = PhastRow(*oracle.ch(), v, UpwardSearch::kForward);
  }

  constexpr int kFillers = 4;
  constexpr int kReaders = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> same_vertex{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kFillers; ++w) {
    workers.emplace_back([&, w] {
      // Each filler walks every source from its own offset, so fills race.
      for (VertexId i = 0; i < n; ++i) {
        const VertexId s = (i + w * n / kFillers) % n;
        if (oracle.Cost(s, (s + 1) % n) != reference[s][(s + 1) % n]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (int w = 0; w < kReaders; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(681 + uint64_t(w));
      for (int round = 0; round < 4 * n; ++round) {
        const VertexId s = VertexId(rng.NextInt(0, n - 1));
        const std::vector<Seconds>* row = oracle.ResidentRow(s);
        if (row != nullptr && *row != reference[s]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Every row is resident once the fillers are done; reads ticked nothing.
  for (VertexId v = 0; v < n; ++v) {
    const std::vector<Seconds>* row = oracle.ResidentRow(v);
    ASSERT_NE(row, nullptr) << v;
    EXPECT_EQ(*row, reference[v]) << v;
  }
  EXPECT_EQ(oracle.queries(), int64_t(kFillers) * n);
  EXPECT_EQ(oracle.row_misses(), n);
  EXPECT_EQ(oracle.row_hits(), int64_t(kFillers - 1) * n);
}

TEST(ChConcurrencyTest, ConcurrentQueriesMatchDijkstra) {
  ExpectConcurrentQueriesMatchDijkstra(OracleBackend::kCh);
}

TEST(ExactConcurrencyTest, ConcurrentQueriesMatchDijkstra) {
  ExpectConcurrentQueriesMatchDijkstra(OracleBackend::kExact);
}

}  // namespace
}  // namespace mtshare
