// Rush hour, downtown: the scenario the paper's introduction motivates.
// Compares every matching scheme on the same morning-peak request stream
// and prints a side-by-side scoreboard — the quick way to see why
// mobility-aware matching matters when demand outstrips the fleet.
//
//   $ ./build/examples/peak_hour_comparison
#include <cstdio>

#include "core/mtshare_system.h"
#include "graph/graph_generators.h"

using namespace mtshare;

int main() {
  GridCityOptions city;
  city.rows = 32;
  city.cols = 32;
  city.spacing_m = 160.0;
  RoadNetwork network = MakeGridCity(city);

  DemandModelOptions dopt;
  dopt.day = DayType::kWorkday;
  DemandModel demand(network, dopt);

  ScenarioOptions sopt;
  sopt.t_begin = 8 * 3600.0;
  sopt.t_end = 9 * 3600.0;
  sopt.num_requests = 1200;  // heavy morning demand
  sopt.num_historical_trips = 15000;

  SystemConfig config;
  config.kappa = 64;
  config.kt = 16;
  auto built = CreateScenarioSystem(network, demand, sopt, config);
  if (!built.ok()) {
    std::fprintf(stderr, "system: %s\n", built.status().ToString().c_str());
    return 1;
  }
  auto& [system, scenario] = built.value();

  const int32_t fleet = 120;
  std::printf("morning peak: %zu requests, %d taxis, %d-vertex city\n\n",
              scenario.requests.size(), fleet, network.num_vertices());
  std::printf("%-12s %8s %10s %10s %10s %12s\n", "scheme", "served",
              "resp(ms)", "wait(min)", "detour", "income");
  ScenarioSpec spec;
  spec.requests = &scenario.requests;
  spec.num_taxis = fleet;
  for (SchemeKind scheme :
       {SchemeKind::kNoSharing, SchemeKind::kTShare, SchemeKind::kPGreedyDp,
        SchemeKind::kMtShare}) {
    spec.scheme = scheme;
    Result<Metrics> run = system->RunScenario(spec);
    if (!run.ok()) {
      std::fprintf(stderr, "run: %s\n", run.status().ToString().c_str());
      return 1;
    }
    Metrics m = std::move(run).value();
    std::printf("%-12s %8d %10.3f %10.2f %10.2f %12.0f\n", SchemeName(scheme),
                m.ServedRequests(), m.MeanResponseMs(),
                m.MeanWaitingMinutes(), m.MeanDetourMinutes(),
                m.total_driver_income);
  }
  std::printf(
      "\nReading the table: ridesharing roughly halves the unserved queue\n"
      "versus exclusive taxis, and mT-Share's mobility-aware indexing finds\n"
      "matches the grid-based baselines miss, at sub-millisecond dispatch.\n");
  return 0;
}
