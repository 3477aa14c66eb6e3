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
//                  (default 40000, matching mtshare_sim — both tools draw
//                  the history on Rng(seed + 2), tools/tool_system.h, so
//                  with the same city/seed flags they build identical
//                  systems and serving a --save-requests log replays the
//                  sim run byte-identically)
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
//   --report       write a schema-11 JSON run report here (includes the
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
#include "flags.h"
#include "sim/request_source.h"
#include "tool_system.h"

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

  const SharedFlags flags = ReadSharedFlags(args, &ok);
  const int32_t historical = GetCount(args, "historical", 40000, &ok);
  const int32_t gauge_every = GetCount(args, "gauge-every", 1000, &ok);
  const std::string input_path = GetS(args, "input", "");
  // Every flag is read by now; anything left over is a typo.
  if (!args.RejectUnread()) ok = false;
  if (!ok) return 2;  // every malformed flag already printed its error

  // Historical trips only — the request stream itself arrives on stdin.
  // They are the trips mtshare_sim's scenario draws first on the same Rng.
  ToolCity city;
  if (int rc = BuildToolCity(flags, &city)) return rc;
  Rng history_rng(HistorySeed(flags));
  auto system = MTShareSystem::Create(
      city.network,
      OdPairsOf(GenerateHistoricalTrips(*city.demand, historical,
                                        history_rng)),
      flags.config);
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
  const double rho = flags.config.rho;
  const int64_t num_vertices = city.network.num_vertices();
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

  ScenarioSpec spec = MakeToolSpec(flags);
  spec.source = &source;
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
               SchemeName(flags.scheme),
               static_cast<long long>(source.produced()),
               m.ServedRequests(), m.ServedOnline(), m.ServedOffline(),
               static_cast<long long>(m.serve.shed), latency.Percentile(0.50),
               latency.Percentile(0.99),
               static_cast<long long>(m.serve.batches),
               static_cast<long long>(m.serve.queue_depth),
               m.execution_seconds);

  if (!flags.report_path.empty()) {
    RunReportContext ctx = MakeToolReportContext(
        flags, "mtshare_serve", static_cast<int32_t>(source.produced()));
    Status written = WriteRunReport(flags.report_path, ctx, m);
    if (!written.ok()) {
      std::fprintf(stderr, "report: %s\n", written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[serve] run report written to %s\n",
                 flags.report_path.c_str());
  }
  return 0;
}
