// mtshare_sim — command-line runner for the mT-Share simulation stack.
//
// Examples:
//   mtshare_sim --scheme=mt-share --taxis=150 --requests=1500
//   mtshare_sim --scheme=mt-share-pro --window=nonpeak --offline=0.33
//   mtshare_sim --network=city.csv --scheme=pgreedy-dp --per-request=out.csv
//
// Flags (all --key=value):
//   --scheme       no-sharing | t-share | pgreedy-dp | mt-share |
//                  mt-share-pro            (default mt-share)
//   --window       peak | nonpeak          (default peak)
//   --taxis        fleet size              (default 150)
//   --requests     request count           (default 1500)
//   --offline      offline fraction        (default 0 peak / 0.32 nonpeak)
//   --rho          deadline flexibility    (default 1.3)
//   --kappa        partitions              (default 120)
//   --capacity     seats per taxi          (default 3)
//   --gamma        searching range, m      (default 2500)
//   --seed         RNG seed                (default 42)
//   --oracle       auto | exact | ch       (default auto: exact table for
//                  small graphs, contraction hierarchy for large ones;
//                  results identical for every backend). The backend also
//                  picks how pickup reachability is answered: table reads
//                  on exact, last-stop CH bucket sweeps on ch (DESIGN.md
//                  §14)
//   --rows/--cols  generated city size     (default 48x48)
//   --network      edge-list CSV to load instead of generating
//   --batch-window-ms  batch-window ingest Δt, simulated ms (default 0 =
//                  dispatch each request at its own release boundary; see
//                  DESIGN.md §12)
//   --max-queue    admission cap on the pending dispatch queue (default 0
//                  = unbounded; arrivals past the cap are shed)
//   --save-requests  write the scenario's request log here (the wire
//                  format mtshare_serve ingests; see demand/trip_io.h)
//   --per-request  write a per-request CSV record here
//   --report       write a structured JSON run report here (percentiles,
//                  per-phase dispatch breakdown; see EXPERIMENTS.md)
//
// Malformed values and unknown flags exit 2 with a diagnostic.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/mtshare_system.h"
#include "demand/trip_io.h"
#include "flags.h"
#include "graph/graph_generators.h"
#include "graph/graph_io.h"
#include "sim/run_report.h"

using namespace mtshare;

int main(int argc, char** argv) {
  bool ok = true;
  FlagArgs args = ParseArgs(argc, argv, &ok);
  const bool help = args.Find("help") != nullptr;
  if (!ok || help) {
    std::fprintf(stderr, "see the header of tools/mtshare_sim.cc for usage\n");
    return help ? 0 : 2;
  }

  std::optional<SchemeKind> scheme = ParseScheme(GetS(args, "scheme", "mt-share"));
  if (!scheme.has_value()) {
    std::fprintf(stderr, "unknown --scheme\n");
    return 2;
  }
  const bool peak = GetS(args, "window", "peak") == "peak";
  const uint64_t seed = GetU64(args, "seed", 42, &ok);

  // City: generated or loaded.
  RoadNetwork network;
  std::string network_file = GetS(args, "network", "");
  GridCityOptions gopt;
  gopt.rows = GetCount(args, "rows", 48, &ok);
  gopt.cols = GetCount(args, "cols", 48, &ok);
  gopt.seed = seed;

  SystemConfig config;
  config.kappa = GetCount(args, "kappa", 120, &ok);
  config.kt = std::min<int32_t>(config.kappa, 20);
  config.rho = GetD(args, "rho", 1.3, &ok);
  config.taxi_capacity = GetCount(args, "capacity", 3, &ok);
  config.matching.gamma_max_m = GetD(args, "gamma", 2500.0, &ok);
  if (!ParseOracleBackend(GetS(args, "oracle", "auto"), &config.oracle.backend)) {
    std::fprintf(stderr, "unknown --oracle (want auto|exact|ch)\n");
    return 2;
  }
  config.seed = seed;

  ScenarioOptions sopt;
  sopt.t_begin = (peak ? 8 : 10) * 3600.0;
  sopt.t_end = sopt.t_begin + 3600.0;
  sopt.num_requests = GetCount(args, "requests", 1500, &ok);
  sopt.offline_fraction = GetD(args, "offline", peak ? 0.0 : 0.32, &ok);
  sopt.rho = config.rho;
  sopt.seed = seed + 2;

  const int32_t num_taxis = GetCount(args, "taxis", 150, &ok);
  const double batch_window_ms = GetD(args, "batch-window-ms", 0.0, &ok);
  if (ok && batch_window_ms < 0.0) {
    std::fprintf(stderr, "--batch-window-ms must be >= 0\n");
    ok = false;
  }
  const int32_t max_queue = GetCount(args, "max-queue", 0, &ok);
  const std::string save_requests = GetS(args, "save-requests", "");
  const std::string report_path = GetS(args, "report", "");
  const std::string per_request = GetS(args, "per-request", "");
  // Every flag is read by now; anything left over is a typo.
  if (!args.RejectUnread()) ok = false;
  if (!ok) return 2;  // every malformed flag already printed its error

  Status valid = config.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "bad configuration: %s\n", valid.ToString().c_str());
    return 2;
  }

  if (!network_file.empty()) {
    Result<RoadNetwork> loaded = LoadEdgeList(network_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load network: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    network = std::move(loaded).value();
    network = ExtractLargestScc(network);
  } else {
    network = MakeGridCity(gopt);
  }

  DemandModelOptions dopt;
  dopt.day = peak ? DayType::kWorkday : DayType::kWeekend;
  dopt.seed = seed + 1;
  DemandModel demand(network, dopt);
  // The system trains on the scenario's history, which MakeScenario draws
  // first thing on Rng(sopt.seed); drawing it here first lets the scenario
  // price its requests on the system's own oracle, so one hierarchy is
  // built, not two.
  Rng history_rng(sopt.seed);
  auto system = MTShareSystem::Create(
      network,
      OdPairsOf(GenerateHistoricalTrips(demand, sopt.num_historical_trips,
                                        history_rng)),
      config);
  if (!system.ok()) {
    std::fprintf(stderr, "system: %s\n", system.status().ToString().c_str());
    return 2;
  }
  Scenario scenario =
      MakeScenario(network, demand, system.value()->oracle(), sopt);
  if (!save_requests.empty()) {
    Status saved = SaveRequestLog(save_requests, scenario.requests);
    if (!saved.ok()) {
      std::fprintf(stderr, "save-requests: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("request log written to %s\n", save_requests.c_str());
  }

  ScenarioSpec spec;
  spec.scheme = *scheme;
  spec.requests = &scenario.requests;
  spec.num_taxis = num_taxis;
  spec.fleet_seed = seed + 3;
  spec.batch_window_ms = batch_window_ms;
  spec.max_queue = max_queue;
  Result<Metrics> run = system.value()->RunScenario(spec);
  if (!run.ok()) {
    std::fprintf(stderr, "run: %s\n", run.status().ToString().c_str());
    return 2;
  }
  Metrics m = std::move(run).value();

  std::printf("scheme=%s window=%s taxis=%d requests=%zu offline=%d\n",
              SchemeName(*scheme), peak ? "peak" : "nonpeak", spec.num_taxis,
              scenario.requests.size(), scenario.CountOffline());
  std::printf("served=%d (online=%d offline=%d)\n", m.ServedRequests(),
              m.ServedOnline(), m.ServedOffline());
  std::printf("response_ms=%.3f wait_min=%.2f detour_min=%.2f\n",
              m.MeanResponseMs(), m.MeanWaitingMinutes(),
              m.MeanDetourMinutes());
  std::printf("fare_saving=%.1f%% driver_income=%.0f exec_s=%.2f\n",
              m.MeanFareSaving() * 100.0, m.total_driver_income,
              m.execution_seconds);
  std::printf("oracle=%s ch_upward_settled=%lld ch_shortcuts=%lld\n",
              m.oracle_backend.c_str(),
              static_cast<long long>(m.routing.ch_upward_settled),
              static_cast<long long>(m.routing.ch_shortcuts));

  if (!report_path.empty()) {
    RunReportContext ctx;
    ctx.experiment = "mtshare_sim";
    ctx.scheme = SchemeName(*scheme);
    ctx.window = peak ? "peak" : "nonpeak";
    ctx.num_taxis = spec.num_taxis;
    ctx.num_requests = static_cast<int32_t>(scenario.requests.size());
    ctx.seed = seed;
    Status written = WriteRunReport(report_path, ctx, m);
    if (!written.ok()) {
      std::fprintf(stderr, "report: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("run report written to %s\n", report_path.c_str());
  }

  if (!per_request.empty()) {
    std::ofstream out(per_request);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", per_request.c_str());
      return 1;
    }
    out << "id,offline,completed,release,pickup,dropoff,direct_s,"
           "response_ms,taxi,regular_fare,shared_fare\n";
    for (const RequestRecord& r : m.records()) {
      out << r.id << "," << r.offline << "," << r.completed << ","
          << r.release_time << "," << r.pickup_time << "," << r.dropoff_time
          << "," << r.direct_cost << "," << r.response_ms << "," << r.taxi
          << "," << r.regular_fare << "," << r.shared_fare << "\n";
    }
    std::printf("per-request records written to %s\n", per_request.c_str());
  }
  return 0;
}
