// mtshare_serve — streaming dispatch service over the mT-Share stack.
//
// Reads a newline-delimited request log (CSV or flat JSON, the format of
// demand/trip_io.h) from stdin or --input, dispatches each request through
// the configured scheme as it arrives, and streams one JSON decision line
// per request to stdout. Live SLO gauges (p50/p99 dispatch latency,
// ingest rate, shed count) go to stderr while the run is in flight.
//
// Examples:
//   mtshare_sim --rows=24 --cols=24 --requests=10000 --save-requests=log.csv
//   mtshare_serve --rows=24 --cols=24 --scheme=mt-share < log.csv
//   tail -f live.log | mtshare_serve --network=city.csv --batch-window-ms=200
//
// Flags (all --key=value):
//   --scheme       no-sharing | t-share | pgreedy-dp | mt-share |
//                  mt-share-pro            (default mt-share)
//   --taxis        fleet size              (default 150)
//   --kappa        partitions              (default 120)
//   --capacity     seats per taxi          (default 3)
//   --gamma        searching range, m      (default 2500)
//   --rho          deadline flexibility used to derive deadlines the log
//                  omits                   (default 1.3)
//   --seed         RNG seed                (default 42)
//   --oracle       auto | exact | ch       (default auto) — also picks how
//                  pickup reachability is answered: table reads on exact,
//                  one backward CH sweep over last-stop buckets on ch
//                  (DESIGN.md §14). Decisions are identical.
//   --rows/--cols  generated city size     (default 48x48)
//   --network      edge-list CSV to load instead of generating
//   --historical   historical trips for the mobility statistics
//                  (default 40000, matching mtshare_sim — with the same
//                  city/seed flags the two tools build identical systems,
//                  so serving a --save-requests log replays the sim run
//                  byte-identically)
//   --window       peak | nonpeak demand profile for the historical trips
//                  (default peak)
//   --batch-window-ms  collect arrivals for this many simulated ms after
//                  the first pending release, dispatch the batch at window
//                  close (default 0 = dispatch per request)
//   --max-queue    admission cap on the pending dispatch queue (default 0
//                  = unbounded; arrivals past the cap are shed)
//   --gauge-every  emit a gauge line to stderr every N decisions
//                  (default 1000; 0 = silent)
//   --input        read the request log from this file instead of stdin
//   --report       write a schema-8 JSON run report here (includes the
//                  "serve" admission/backpressure block)
//
// Exit codes: 0 success, 1 runtime failure (bad network file, malformed
// request line, short write), 2 flag/usage errors (malformed values and
// unknown flags).
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common/histogram.h"
#include "core/mtshare_system.h"
#include "demand/trip_io.h"
#include "flags.h"
#include "graph/graph_generators.h"
#include "graph/graph_io.h"
#include "sim/request_source.h"
#include "sim/run_report.h"

using namespace mtshare;

int main(int argc, char** argv) {
#ifdef SIGPIPE
  // A reader hanging up mid-stream must surface as a short write (exit 1
  // with a diagnostic), not kill the process with the default SIGPIPE
  // disposition before the write failure can be reported.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  bool ok = true;
  FlagArgs args = ParseArgs(argc, argv, &ok);
  const bool help = args.Find("help") != nullptr;
  if (!ok || help) {
    std::fprintf(stderr,
                 "see the header of tools/mtshare_serve.cc for usage\n");
    return help ? 0 : 2;
  }

  std::optional<SchemeKind> scheme =
      ParseScheme(GetS(args, "scheme", "mt-share"));
  if (!scheme.has_value()) {
    std::fprintf(stderr, "unknown --scheme\n");
    return 2;
  }
  const bool peak = GetS(args, "window", "peak") == "peak";
  const uint64_t seed = GetU64(args, "seed", 42, &ok);

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
  if (!ParseOracleBackend(GetS(args, "oracle", "auto"),
                          &config.oracle.backend)) {
    std::fprintf(stderr, "unknown --oracle (want auto|exact|ch)\n");
    return 2;
  }
  config.seed = seed;

  const int32_t num_taxis = GetCount(args, "taxis", 150, &ok);
  const int32_t historical = GetCount(args, "historical", 40000, &ok);
  const double batch_window_ms = GetD(args, "batch-window-ms", 0.0, &ok);
  if (ok && batch_window_ms < 0.0) {
    std::fprintf(stderr, "--batch-window-ms must be >= 0\n");
    ok = false;
  }
  const int32_t max_queue = GetCount(args, "max-queue", 0, &ok);
  const int32_t gauge_every = GetCount(args, "gauge-every", 1000, &ok);
  const std::string input_path = GetS(args, "input", "");
  const std::string report_path = GetS(args, "report", "");
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

  // Historical trips only — the request stream itself arrives on stdin.
  // They come straight from the demand model, so no oracle is needed here.
  DemandModelOptions dopt;
  dopt.day = peak ? DayType::kWorkday : DayType::kWeekend;
  dopt.seed = seed + 1;
  DemandModel demand(network, dopt);
  Rng history_rng(seed + 2);
  const std::vector<OdPair> history =
      OdPairsOf(GenerateHistoricalTrips(demand, historical, history_rng));

  auto system = MTShareSystem::Create(network, history, config);
  if (!system.ok()) {
    std::fprintf(stderr, "system: %s\n", system.status().ToString().c_str());
    return 2;
  }

  std::ifstream input_file;
  std::istream* in = &std::cin;
  if (!input_path.empty()) {
    input_file.open(input_path);
    if (!input_file) {
      std::fprintf(stderr, "cannot read --input %s\n", input_path.c_str());
      return 1;
    }
    in = &input_file;
  }

  // Service logs may omit direct_cost/deadline; derive them the same way
  // the generator does (cost from the oracle, deadline from rho). The
  // bounds guard leaves out-of-range vertices for the source's validation,
  // which reports a line-tagged error instead of crashing the oracle.
  DistanceOracle& oracle = system.value()->oracle();
  const double rho = config.rho;
  const int64_t num_vertices = network.num_vertices();
  StreamSourceOptions source_options;
  source_options.num_vertices = num_vertices;
  source_options.finalize = [&oracle, rho, num_vertices](RideRequest* r) {
    if (r->origin < 0 || r->origin >= num_vertices || r->destination < 0 ||
        r->destination >= num_vertices) {
      return;
    }
    if (r->direct_cost <= 0.0) {
      r->direct_cost = oracle.Cost(r->origin, r->destination);
    }
    if (r->deadline <= r->release_time) {
      r->deadline = r->release_time + rho * r->direct_cost;
    }
  };
  StreamRequestSource source(in, source_options);

  // Decision stream + live gauges. Latency is the dispatcher wall clock
  // per request (RequestRecord::response_ms); rate is decisions over real
  // time since the first one.
  LatencyHistogram latency = LatencyHistogram::ForLatencyMs();
  int64_t decisions = 0;
  int64_t shed = 0;
  // The decision stream IS the tool's output: a short write (full disk,
  // closed pipe) must fail the run, not silently drop decisions. printf
  // buffers, so failures can surface at any later write or only at the
  // final fflush — track the first one and re-check ferror at the end.
  bool write_failed = false;
  const auto t0 = std::chrono::steady_clock::now();

  ScenarioSpec spec;
  spec.scheme = *scheme;
  spec.source = &source;
  spec.num_taxis = num_taxis;
  spec.fleet_seed = seed + 3;
  spec.batch_window_ms = batch_window_ms;
  spec.max_queue = max_queue;
  spec.on_decision = [&](const RideRequest& r, const RequestRecord& rec) {
    ++decisions;
    int written = 0;
    if (rec.shed) {
      ++shed;
      written = std::printf("{\"id\":%lld,\"shed\":true}\n",
                            static_cast<long long>(r.id));
    } else if (rec.offline) {
      written = std::printf("{\"id\":%lld,\"offline\":true,\"taxi\":%d}\n",
                            static_cast<long long>(r.id), rec.taxi);
    } else {
      latency.Record(rec.response_ms);
      written = std::printf(
          "{\"id\":%lld,\"assigned\":%s,\"taxi\":%d,\"response_ms\":%.3f,"
          "\"candidates\":%d}\n",
          static_cast<long long>(r.id), rec.assigned ? "true" : "false",
          rec.taxi, rec.response_ms, rec.candidates);
    }
    write_failed = write_failed || written < 0;
    if (gauge_every > 0 && decisions % gauge_every == 0) {
      const double elapsed_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      std::fprintf(stderr,
                   "[serve] n=%lld p50=%.3fms p99=%.3fms rate=%.0f req/s "
                   "shed=%lld\n",
                   static_cast<long long>(decisions), latency.Percentile(0.50),
                   latency.Percentile(0.99),
                   elapsed_s > 0 ? decisions / elapsed_s : 0.0,
                   static_cast<long long>(shed));
    }
  };

  Result<Metrics> run = system.value()->RunScenario(spec);
  if (!run.ok()) {
    std::fprintf(stderr, "serve: %s\n", run.status().ToString().c_str());
    return 1;
  }
  Metrics m = std::move(run).value();
  if (std::fflush(stdout) != 0 || std::ferror(stdout) || write_failed) {
    std::fprintf(stderr,
                 "serve: short write on the decision stream (disk full or "
                 "closed pipe?) — decisions were lost\n");
    return 1;
  }

  std::fprintf(stderr,
               "[serve] done scheme=%s ingested=%lld served=%d "
               "(online=%d offline=%d) shed=%lld p50=%.3fms p99=%.3fms "
               "batches=%lld queue_depth=%lld exec_s=%.2f\n",
               SchemeName(*scheme), static_cast<long long>(source.produced()),
               m.ServedRequests(), m.ServedOnline(), m.ServedOffline(),
               static_cast<long long>(m.serve.shed), latency.Percentile(0.50),
               latency.Percentile(0.99),
               static_cast<long long>(m.serve.batches),
               static_cast<long long>(m.serve.queue_depth),
               m.execution_seconds);

  if (!report_path.empty()) {
    RunReportContext ctx;
    ctx.experiment = "mtshare_serve";
    ctx.scheme = SchemeName(*scheme);
    ctx.window = peak ? "peak" : "nonpeak";
    ctx.num_taxis = num_taxis;
    ctx.num_requests = static_cast<int32_t>(source.produced());
    ctx.seed = seed;
    Status written = WriteRunReport(report_path, ctx, m);
    if (!written.ok()) {
      std::fprintf(stderr, "report: %s\n", written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[serve] run report written to %s\n",
                 report_path.c_str());
  }
  return 0;
}
