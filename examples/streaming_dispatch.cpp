// Streaming dispatch: feed the engine through a RequestSource instead of a
// pre-materialized vector, watch every match decision live, and coalesce
// arrivals into batch windows with load shedding.
//
//   $ ./build/examples/streaming_dispatch
//
// This is the in-process version of what `tools/mtshare_serve` does over
// stdin/stdout (README "Service mode", DESIGN.md §12): the same run API,
// ScenarioSpec, just pointed at a stream.
#include <cstdio>
#include <sstream>

#include "core/mtshare_system.h"
#include "demand/trip_io.h"
#include "graph/graph_generators.h"
#include "sim/request_source.h"

using namespace mtshare;

int main() {
  // 1. A city, demand, and a trained system — exactly as in `quickstart`.
  GridCityOptions city;
  city.rows = 16;
  city.cols = 16;
  RoadNetwork network = MakeGridCity(city);
  DemandModel demand(network, DemandModelOptions{});

  ScenarioOptions sopt;
  sopt.num_requests = 300;
  sopt.num_historical_trips = 6000;

  SystemConfig config;
  config.kappa = 20;
  config.kt = 5;
  auto built = CreateScenarioSystem(network, demand, sopt, config);
  if (!built.ok()) {
    std::fprintf(stderr, "system: %s\n", built.status().ToString().c_str());
    return 1;
  }
  auto& [system, scenario] = built.value();

  // 2. A request log in the service wire format — one CSV line per request,
  //    the layout `mtshare_sim --save-requests` writes and `mtshare_serve`
  //    reads. Here the "service traffic" is the scenario serialized into a
  //    stringstream; in production it would be a socket or a log file.
  std::stringstream wire;
  for (const RideRequest& r : scenario.requests) {
    wire << FormatRequestCsv(r) << "\n";
  }

  // 3. A StreamRequestSource parses it back one line at a time. The source
  //    self-validates (dense ids, release-sorted, vertex bounds) and a run
  //    fed from it is byte-identical to one fed from the vector.
  StreamSourceOptions wire_options;
  wire_options.num_vertices = network.num_vertices();
  StreamRequestSource stream(&wire, wire_options);

  // 4. Dispatch with a 500 ms (simulated) batch window and a bounded
  //    pending queue, printing every decision as it is made. Window 0
  //    would be the classic per-request loop; requests past the queue
  //    bound are shed, not silently dropped.
  ScenarioSpec spec;
  spec.scheme = SchemeKind::kMtShare;
  spec.source = &stream;  // instead of spec.requests
  spec.num_taxis = 30;
  spec.batch_window_ms = 500.0;
  spec.max_queue = 16;
  spec.on_decision = [](const RideRequest& r, const RequestRecord& rec) {
    if (rec.shed) {
      std::printf("request %lld: shed (queue full)\n",
                  static_cast<long long>(r.id));
    } else if (r.id < 5 || rec.offline) {  // keep the demo output short
      std::printf("request %lld: %s taxi %d (%.2f ms)%s\n",
                  static_cast<long long>(r.id),
                  rec.assigned ? "assigned to" : "rejected by", rec.taxi,
                  rec.response_ms, rec.offline ? " [street hail]" : "");
    }
  };

  Result<Metrics> run = system->RunScenario(spec);
  if (!run.ok()) {  // a malformed stream fails here with a line-tagged error
    std::fprintf(stderr, "run: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const Metrics& m = run.value();

  // 5. The serve counters land in Metrics::serve (and in the schema-5
  //    "serve" block of --report files).
  std::printf(
      "\nserved %lld/%zu  batches=%lld  admitted=%lld  shed=%lld  "
      "queue_depth=%lld\n",
      static_cast<long long>(m.ServedRequests()), scenario.requests.size(),
      static_cast<long long>(m.serve.batches),
      static_cast<long long>(m.serve.admitted),
      static_cast<long long>(m.serve.shed),
      static_cast<long long>(m.serve.queue_depth));
  return 0;
}
