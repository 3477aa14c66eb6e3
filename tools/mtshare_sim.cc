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
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "demand/trip_io.h"
#include "flags.h"
#include "tool_system.h"

using namespace mtshare;

int main(int argc, char** argv) {
  bool ok = true;
  FlagArgs args = ParseArgs(argc, argv, &ok);
  const bool help = args.Find("help") != nullptr;
  if (!ok || help) {
    std::fprintf(stderr, "see the header of tools/mtshare_sim.cc for usage\n");
    return help ? 0 : 2;
  }

  const SharedFlags flags = ReadSharedFlags(args, &ok);
  ScenarioOptions sopt;
  sopt.t_begin = (flags.peak ? 8 : 10) * 3600.0;
  sopt.t_end = sopt.t_begin + 3600.0;
  sopt.num_requests = GetCount(args, "requests", 1500, &ok);
  sopt.offline_fraction = GetD(args, "offline", flags.peak ? 0.0 : 0.32, &ok);
  sopt.rho = flags.config.rho;
  sopt.seed = HistorySeed(flags);
  const std::string save_requests = GetS(args, "save-requests", "");
  const std::string per_request = GetS(args, "per-request", "");
  // Every flag is read by now; anything left over is a typo.
  if (!args.RejectUnread()) ok = false;
  if (!ok) return 2;  // every malformed flag already printed its error

  ToolCity city;
  if (int rc = BuildToolCity(flags, &city)) return rc;
  auto built =
      CreateScenarioSystem(city.network, *city.demand, sopt, flags.config);
  if (!built.ok()) {
    std::fprintf(stderr, "system: %s\n", built.status().ToString().c_str());
    return 2;
  }
  auto& [system, scenario] = built.value();
  if (!save_requests.empty()) {
    Status saved = SaveRequestLog(save_requests, scenario.requests);
    if (!saved.ok()) {
      std::fprintf(stderr, "save-requests: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("request log written to %s\n", save_requests.c_str());
  }

  ScenarioSpec spec = MakeToolSpec(flags);
  spec.requests = &scenario.requests;
  Result<Metrics> run = system->RunScenario(spec);
  if (!run.ok()) {
    std::fprintf(stderr, "run: %s\n", run.status().ToString().c_str());
    return 2;
  }
  Metrics m = std::move(run).value();

  std::printf("scheme=%s window=%s taxis=%d requests=%zu offline=%d\n",
              SchemeName(flags.scheme), flags.peak ? "peak" : "nonpeak",
              spec.num_taxis, scenario.requests.size(),
              scenario.CountOffline());
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

  if (!flags.report_path.empty()) {
    RunReportContext ctx = MakeToolReportContext(
        flags, "mtshare_sim", static_cast<int32_t>(scenario.requests.size()));
    Status written = WriteRunReport(flags.report_path, ctx, m);
    if (!written.ok()) {
      std::fprintf(stderr, "report: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("run report written to %s\n", flags.report_path.c_str());
  }

  if (!per_request.empty()) {
    std::ofstream out(per_request);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", per_request.c_str());
      return 1;
    }
    // Every bit of each double, so the CSV reproduces a run exactly.
    out.precision(std::numeric_limits<double>::max_digits10);
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
