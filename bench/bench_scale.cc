// City-scale streamed sweep (extends Fig. 21 to the metropolitan regime).
// The paper's scalability claim — execution time linear in the replayed
// data, response time flat — is only meaningful at the scale the claim is
// about: 10^5+ vertices, 10^4 vehicles, 10^6 requests (the regime KaRRi
// and the Luo et al. peak-period study evaluate on). This bench builds a
// 100k+ vertex city, streams requests lazily through a
// GeneratorRequestSource (release times are the only pre-materialized
// state, 8 bytes/request), and sweeps fleet x request-count rows.
//
// Output: the usual paper-style table on stdout plus one trajectory line
// per row in BENCH_scale.json (schema-validated by scale_report_smoke.cmake).
//
// Environment knobs (on top of the bench_common MTSHARE_BENCH_* set):
//   MTSHARE_SCALE_CI=1        reduced sizes for CI smoke legs (~4k-vertex
//                             city, small fleets/request counts)
//   MTSHARE_SCALE_ONLY=T:R    run the single row fleet=T, requests=R
//                             (e.g. 10000:1000000 for the acceptance row;
//                             also the A/B hook for before/after timing)
//   MTSHARE_SCALE_NETWORK=f   load an edge-list CSV instead of generating
//                             the grid city (largest SCC is extracted)
//
// The oracle backend, which kAuto picks by graph size, also picks how
// pickup reachability is answered (DESIGN.md §14): table reads on the CI
// city, last-stop CH bucket sweeps on the 100k+ city.
#include <chrono>
#include <cstdlib>

#include "bench_common.h"
#include "common/string_util.h"
#include "graph/graph_io.h"
#include "sim/request_source.h"

using namespace mtshare;
using namespace mtshare::bench;

namespace {

struct ScaleRow {
  int32_t taxis = 0;
  int32_t requests = 0;
};

bool ScaleCi() {
  const char* env = std::getenv("MTSHARE_SCALE_CI");
  return env != nullptr && env[0] == '1';
}

/// MTSHARE_SCALE_ONLY="taxis:requests", strictly parsed.
bool ScaleOnlyRow(ScaleRow* out) {
  const char* env = std::getenv("MTSHARE_SCALE_ONLY");
  if (env == nullptr || env[0] == '\0') return false;
  const std::string spec{Trim(env)};
  const size_t colon = spec.find(':');
  int64_t taxis = 0;
  int64_t requests = 0;
  if (colon == std::string::npos ||
      !ParseInt64(spec.substr(0, colon), &taxis) ||
      !ParseInt64(spec.substr(colon + 1), &requests) || taxis <= 0 ||
      requests <= 0 || taxis > 1000000 || requests > 100000000) {
    std::fprintf(stderr,
                 "invalid MTSHARE_SCALE_ONLY='%s' (want taxis:requests, "
                 "both positive)\n",
                 env);
    std::exit(2);
  }
  out->taxis = static_cast<int32_t>(taxis);
  out->requests = static_cast<int32_t>(requests);
  return true;
}

RoadNetwork MakeScaleCity() {
  const char* file = std::getenv("MTSHARE_SCALE_NETWORK");
  if (file != nullptr && file[0] != '\0') {
    Result<RoadNetwork> loaded = LoadEdgeList(file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load MTSHARE_SCALE_NETWORK=%s: %s\n",
                   file, loaded.status().ToString().c_str());
      std::exit(1);
    }
    return ExtractLargestScc(loaded.value());
  }
  // 324x324 blocks ~= 105k vertices before the SCC trim — the same order
  // as the paper's Chengdu extract (214k) and KaRRi's metropolitan
  // instances. CI mode drops to ~4k vertices so the smoke leg stays in
  // exact-oracle territory and finishes in seconds.
  GridCityOptions opt;
  opt.rows = ScaleCi() ? 64 : 324;
  opt.cols = ScaleCi() ? 64 : 324;
  opt.spacing_m = 120.0;
  opt.seed = 20200961;
  return MakeGridCity(opt);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  PrintBanner("scale",
              "extends Fig. 21 to the metropolitan regime (10^5 vertices, "
              "10^4 taxis, 10^6 streamed requests): execution time linear "
              "in replayed data, flat response times");

  const uint64_t seed = 4242;
  const double t0 = NowSeconds();
  RoadNetwork network = MakeScaleCity();
  std::printf("city: %lld vertices, %lld arcs (%.1f s)\n",
              static_cast<long long>(network.num_vertices()),
              static_cast<long long>(network.num_edges()),
              NowSeconds() - t0);

  // Paper-faithful system parameters (Table II). kAuto picks the dense
  // exact table at CI scale and the contraction hierarchy on the 100k+
  // city — the backend the candidate search and insertion DP query.
  SystemConfig config;
  config.seed = seed;

  // Historical trips only; the evaluation stream is produced lazily below.
  // They come straight from the demand model, so no oracle (and no second
  // hierarchy build) is needed here.
  DemandModelOptions dopt;
  dopt.day = DayType::kWorkday;
  dopt.seed = seed + 1;
  DemandModel demand(network, dopt);
  Rng history_rng(seed + 2);
  const std::vector<OdPair> history = OdPairsOf(GenerateHistoricalTrips(
      demand, ScaleCi() ? 10000 : 40000, history_rng));

  const double t1 = NowSeconds();
  auto system = MTShareSystem::Create(network, history, config);
  if (!system.ok()) {
    std::fprintf(stderr, "system: %s\n", system.status().ToString().c_str());
    return 1;
  }
  std::printf("system: %s oracle, %.1f s build\n",
              OracleBackendName(system.value()->oracle().backend()),
              NowSeconds() - t1);

  std::vector<ScaleRow> rows;
  ScaleRow only;
  if (ScaleOnlyRow(&only)) {
    rows = {only};
  } else if (ScaleCi()) {
    rows = {{150, 2000}, {1000, 4000}};
  } else {
    // Fleet sweep at fixed demand, then demand sweep at the 10k fleet up
    // to the 1M-request acceptance row.
    rows = {{1000, 250000},
            {10000, 250000},
            {50000, 250000},
            {10000, 1000000}};
  }

  PrintHeader({"taxis", "requests", "served", "exec s", "resp ms", "req/s"});
  for (const ScaleRow& row : rows) {
    // Replays 7:00-20:00 of a workday (the paper's Fig. 21 window). The
    // stream is deterministic per (demand, seed): the same row re-run
    // before and after a layout change sees the identical request
    // sequence, which is what makes the A/B exec-time delta meaningful
    // and lets the golden harness pin decision metrics bit-wise.
    ScenarioOptions sopt;
    sopt.t_begin = 7 * 3600.0;
    sopt.t_end = 20 * 3600.0;
    sopt.num_requests = row.requests;
    sopt.rho = config.rho;
    sopt.seed = seed + 3;
    GeneratorRequestSource source(demand, system.value()->oracle(), sopt);

    ScenarioSpec spec;
    spec.scheme = SchemeKind::kMtShare;
    spec.source = &source;
    spec.num_taxis = row.taxis;
    spec.fleet_seed = seed + 4;
    Result<Metrics> result = system.value()->RunScenario(spec);
    if (!result.ok()) {
      std::fprintf(stderr, "row %d:%d failed: %s\n", row.taxis, row.requests,
                   result.status().ToString().c_str());
      return 1;
    }
    Metrics m = std::move(result).value();
    PrintRow({std::to_string(row.taxis), std::to_string(row.requests),
              std::to_string(m.ServedRequests()), Fmt(m.execution_seconds, 2),
              Fmt(m.MeanResponseMs(), 3),
              Fmt(m.execution_seconds > 0 ? row.requests / m.execution_seconds
                                          : 0.0,
                  0)});

    RunReportContext ctx;
    ctx.scheme = SchemeName(spec.scheme);
    ctx.window = "peak";
    ctx.num_taxis = row.taxis;
    ctx.num_requests = row.requests;
    ctx.seed = seed;
    RecordTrajectoryRun(ctx, m);
  }
  return 0;
}
