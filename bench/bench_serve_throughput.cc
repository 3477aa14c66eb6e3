// Service-mode throughput: dispatch rate (req/s of engine wall-clock) and
// p99 dispatch latency for every scheme across the batch-window settings
// of the streaming ingest path (DESIGN.md §12). Batch windows are
// simulated time: at the bench arrival rate a 50-200 ms window coalesces
// only co-released requests, so the sweep primarily measures the overhead
// of the batch machinery against the Δt=0 per-request baseline, plus the
// latency effect where bursts do line up.
#include "bench_common.h"
#include "common/logging.h"

using namespace mtshare;
using namespace mtshare::bench;

int main() {
  BenchScale scale = GetScale();
  BenchEnv env(Window::kPeak);
  PrintBanner("Serve",
              "service mode (no paper figure): req/s and p99 dispatch "
              "latency vs batch window, peak workload");
  std::printf("requests: %d, taxis: %d, windows: 0/50/200 ms\n",
              static_cast<int>(env.scenario().requests.size()),
              scale.default_fleet);
  PrintHeader({"window_ms", "scheme", "req/s", "p99_ms", "batches",
               "queue_depth"});

  const std::vector<SchemeKind> schemes = {
      SchemeKind::kNoSharing, SchemeKind::kTShare, SchemeKind::kPGreedyDp,
      SchemeKind::kMtShare, SchemeKind::kMtSharePro};
  for (double window_ms : {0.0, 50.0, 200.0}) {
    for (SchemeKind scheme : schemes) {
      ScenarioSpec spec;
      spec.scheme = scheme;
      spec.requests = &env.scenario().requests;
      spec.num_taxis = scale.default_fleet;
      spec.batch_window_ms = window_ms;
      Result<Metrics> run = env.system().RunScenario(spec);
      MTSHARE_CHECK(run.ok());
      Metrics m = std::move(run).value();
      env.RecordRun(spec, m);
      const double reqs_per_s =
          m.execution_seconds > 0
              ? m.serve.admitted / m.execution_seconds
              : 0.0;
      PrintRow({Fmt(window_ms, 0), SchemeName(scheme), Fmt(reqs_per_s, 0),
                Fmt(m.response_hist().Percentile(0.99), 3),
                std::to_string(m.serve.batches),
                std::to_string(m.serve.queue_depth)});
    }
  }
  return 0;
}
