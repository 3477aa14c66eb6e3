#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/mtshare_system.h"
#include "graph/graph_generators.h"

namespace mtshare {
namespace {

// Runs in mtshare_thread_tests so the tsan preset checks it: 8 threads
// call RunScenario on ONE CH-backed system, so every run answers pickup
// reachability with last-stop bucket sweeps. The runs share the oracle's
// ContractionHierarchy and its pool of query engines, and each dispatcher
// owns its private LastStopBuckets store. Every run must land on the same
// decisions as a reference run computed before the threads start.
TEST(BucketSearchConcurrencyTest, ConcurrentChBucketRunsStayIdentical) {
  GridCityOptions gopt;
  gopt.rows = 12;
  gopt.cols = 12;
  gopt.seed = 71;
  RoadNetwork net = MakeGridCity(gopt);
  DemandModelOptions dopt;
  dopt.seed = 72;
  DemandModel demand(net, dopt);
  ScenarioOptions sopt;
  sopt.num_requests = 60;
  sopt.num_historical_trips = 1500;
  sopt.offline_fraction = 0.2;
  sopt.seed = 73;

  SystemConfig config;
  config.kappa = 12;
  config.kt = 5;
  config.oracle.backend = OracleBackend::kCh;
  ScenarioSystem built =
      CreateScenarioSystem(net, demand, sopt, config).value();
  MTShareSystem* system = built.system.get();

  ScenarioSpec spec;
  spec.scheme = SchemeKind::kMtShare;
  spec.requests = &built.scenario.requests;
  spec.num_taxis = 12;
  Result<Metrics> reference = system->RunScenario(spec);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(reference.value().routing.bucket_search);

  constexpr int kThreads = 8;
  std::vector<Metrics> results(kThreads);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([system, &spec, &results, w] {
      Result<Metrics> run = system->RunScenario(spec);
      EXPECT_TRUE(run.ok()) << run.status();
      if (run.ok()) results[static_cast<size_t>(w)] = std::move(run).value();
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int w = 0; w < kThreads; ++w) {
    const Metrics& m = results[static_cast<size_t>(w)];
    SCOPED_TRACE("worker " + std::to_string(w));
    EXPECT_EQ(m.ServedRequests(), reference.value().ServedRequests());
    EXPECT_DOUBLE_EQ(m.total_driver_income,
                     reference.value().total_driver_income);
    ASSERT_EQ(m.records().size(), reference.value().records().size());
    for (size_t i = 0; i < m.records().size(); ++i) {
      const RequestRecord& got = m.records()[i];
      const RequestRecord& want = reference.value().records()[i];
      EXPECT_EQ(got.assigned, want.assigned) << "request " << i;
      EXPECT_EQ(got.taxi, want.taxi) << "request " << i;
      EXPECT_DOUBLE_EQ(got.dropoff_time, want.dropoff_time)
          << "request " << i;
    }
  }
}

}  // namespace
}  // namespace mtshare
