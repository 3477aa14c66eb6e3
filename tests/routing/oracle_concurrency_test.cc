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
// hammer one oracle with point queries at once, as concurrent RunScenario
// calls on one system do. Each round queries one pair, then one source
// against six targets, then three more sources against prefixes of those
// targets, so targets repeat across sources. On the CH backend the pool
// must hand every thread its own search pair (stateful buffers); on the
// exact table, threads race to fill the same cold rows, each by a PhastRow
// over the shared hierarchy, and each row must still be filled exactly
// once. The counters must not race, and every answer must equal the
// precomputed Dijkstra reference bit for bit.
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
  constexpr int kQueriesPerRound = 1 + 6 + (2 + 4 + 6);
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
      const auto query = [&](VertexId s, VertexId t) {
        if (oracle.Cost(s, t) != reference[s][t]) mismatches.fetch_add(1);
        if (s == t) {
          same_vertex.fetch_add(1);  // answered without an engine or row
        } else {
          row_sources[w].push_back(s);
        }
      };
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const VertexId s = VertexId(rng.NextInt(0, n - 1));
        query(s, VertexId(rng.NextInt(0, n - 1)));

        targets.clear();
        for (int i = 0; i < 6; ++i) {
          targets.push_back(VertexId(rng.NextInt(0, n - 1)));
        }
        for (VertexId t : targets) query(s, t);

        for (size_t i = 0; i < 3; ++i) {
          const VertexId source = VertexId(rng.NextInt(0, n - 1));
          for (VertexId t : std::span(targets).first(2 + 2 * i)) {
            query(source, t);
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);

  EXPECT_EQ(oracle.queries(),
            int64_t(kThreads) * kRoundsPerThread * kQueriesPerRound);
  if (backend == OracleBackend::kExact) {
    // Every row any worker read was filled once, however many raced for
    // it; a same-vertex pair reads no row.
    std::set<VertexId> distinct;
    for (const std::vector<VertexId>& sources : row_sources) {
      distinct.insert(sources.begin(), sources.end());
    }
    EXPECT_EQ(oracle.row_misses(), int64_t(distinct.size()));
    EXPECT_EQ(oracle.row_hits() + oracle.row_misses(),
              oracle.queries() - same_vertex.load());
  } else {
    // One engine point query per pair whose two vertices differ.
    ChQueryStats stats = oracle.ch_query_stats();
    EXPECT_EQ(stats.point_queries, oracle.queries() - same_vertex.load());
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
