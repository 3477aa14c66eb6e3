// Quickstart: build a city, train mT-Share on historical trips, and serve a
// morning of ride requests.
//
//   $ ./build/examples/quickstart
//
// Walks the whole public API surface in ~60 lines: road network generation,
// demand modeling, building the system and its scenario in one call, and a
// simulated run with the mT-Share matching scheme.
#include <cstdio>

#include "core/mtshare_system.h"
#include "graph/graph_generators.h"

using namespace mtshare;

int main() {
  // 1. A road network. Generators give synthetic cities; LoadEdgeList()
  //    (graph/graph_io.h) reads your own map instead.
  GridCityOptions city;
  city.rows = 24;
  city.cols = 24;
  RoadNetwork network = MakeGridCity(city);
  std::printf("city: %d vertices, %d road segments\n", network.num_vertices(),
              network.num_edges());

  // 2. Demand: a hotspot model with commute-like directional flows.
  DemandModel demand(network, DemandModelOptions{});

  // 3. The system and its scenario, in one call. The mobility statistics
  //    train on historical trips spread over the whole day; the scenario
  //    is one peak hour of requests, priced on the system's oracle. The
  //    system builds the bipartite map partitioning, landmark graph,
  //    transition statistics and distance oracle; a bad config comes back
  //    as a status instead of dying.
  ScenarioOptions sopt;
  sopt.t_begin = 8 * 3600.0;  // 08:00
  sopt.t_end = 9 * 3600.0;    // 09:00
  sopt.num_requests = 600;
  sopt.num_historical_trips = 10000;
  SystemConfig config;
  config.kappa = 40;  // partitions; scale with city size
  config.kt = 10;
  auto built = CreateScenarioSystem(network, demand, sopt, config);
  if (!built.ok()) {
    std::fprintf(stderr, "system: %s\n", built.status().ToString().c_str());
    return 1;
  }
  auto& [system, scenario] = built.value();
  std::printf("partitioning: %d partitions from %zu historical trips\n",
              system->partitioning().num_partitions(),
              scenario.historical_trips.size());
  std::printf("scenario: %zu requests\n", scenario.requests.size());

  // 4. Run a fleet of 60 shared taxis under mT-Share. ScenarioSpec is the
  //    primary run API; a run executes on the calling thread.
  ScenarioSpec spec;
  spec.scheme = SchemeKind::kMtShare;
  spec.requests = &scenario.requests;
  spec.num_taxis = 60;
  Result<Metrics> run = system->RunScenario(spec);
  if (!run.ok()) {
    std::fprintf(stderr, "run: %s\n", run.status().ToString().c_str());
    return 1;
  }
  Metrics metrics = std::move(run).value();

  std::printf("\nresults (mT-Share, 60 taxis):\n");
  std::printf("  served:        %d / %d requests\n", metrics.ServedRequests(),
              metrics.TotalRequests());
  std::printf("  response time: %.3f ms/request\n", metrics.MeanResponseMs());
  std::printf("  waiting time:  %.1f min\n", metrics.MeanWaitingMinutes());
  std::printf("  detour time:   %.1f min\n", metrics.MeanDetourMinutes());
  std::printf("  fare saving:   %.1f%% vs riding alone\n",
              metrics.MeanFareSaving() * 100.0);
  std::printf("  driver income: %.0f yuan across the fleet\n",
              metrics.total_driver_income);
  return 0;
}
