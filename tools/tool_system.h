// What mtshare_sim and mtshare_serve share. The flags the two tools share
// are read here, and the city, SystemConfig and demand model are made here,
// so the same flags give either tool the same city and demand; both train
// their systems on the historical trips drawn on Rng(HistorySeed(flags)).
#ifndef MTSHARE_TOOLS_TOOL_SYSTEM_H_
#define MTSHARE_TOOLS_TOOL_SYSTEM_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "core/mtshare_system.h"
#include "flags.h"
#include "graph/graph_generators.h"
#include "graph/graph_io.h"
#include "sim/run_report.h"

namespace mtshare {

/// The values of the flags both tools accept (their headers document
/// them).
struct SharedFlags {
  SchemeKind scheme = SchemeKind::kMtShare;
  bool peak = true;
  uint64_t seed = 42;
  std::string network_file;
  GridCityOptions city;
  SystemConfig config;
  int32_t num_taxis = 150;
  double batch_window_ms = 0.0;
  int32_t max_queue = 0;
  std::string report_path;
};

/// Reads the shared flags. A malformed value, an unknown --scheme,
/// --window or --oracle, or a --rows/--cols below 2 prints a diagnostic
/// and clears *ok.
inline SharedFlags ReadSharedFlags(FlagArgs& args, bool* ok) {
  SharedFlags f;
  std::optional<SchemeKind> scheme =
      ParseScheme(GetS(args, "scheme", "mt-share"));
  if (scheme.has_value()) {
    f.scheme = *scheme;
  } else {
    std::fprintf(stderr, "unknown --scheme\n");
    *ok = false;
  }
  const std::string window = GetS(args, "window", "peak");
  if (window == "peak" || window == "nonpeak") {
    f.peak = window == "peak";
  } else {
    std::fprintf(stderr, "unknown --window (want peak|nonpeak)\n");
    *ok = false;
  }
  f.seed = GetU64(args, "seed", 42, ok);
  f.network_file = GetS(args, "network", "");
  f.city.rows = GetCount(args, "rows", 48, ok);
  f.city.cols = GetCount(args, "cols", 48, ok);
  if (f.city.rows < 2 || f.city.cols < 2) {
    std::fprintf(stderr, "--rows and --cols must be >= 2\n");
    *ok = false;
  }
  f.city.seed = f.seed;

  f.config.kappa = GetCount(args, "kappa", 120, ok);
  f.config.kt = std::min<int32_t>(f.config.kappa, 20);
  f.config.rho = GetD(args, "rho", 1.3, ok);
  f.config.taxi_capacity = GetCount(args, "capacity", 3, ok);
  f.config.matching.gamma_max_m = GetD(args, "gamma", 2500.0, ok);
  if (!ParseOracleBackend(GetS(args, "oracle", "auto"),
                          &f.config.oracle.backend)) {
    std::fprintf(stderr, "unknown --oracle (want auto|exact|ch)\n");
    *ok = false;
  }
  f.config.seed = f.seed;

  f.num_taxis = GetCount(args, "taxis", 150, ok);
  f.batch_window_ms = GetD(args, "batch-window-ms", 0.0, ok);
  if (*ok && f.batch_window_ms < 0.0) {
    std::fprintf(stderr, "--batch-window-ms must be >= 0\n");
    *ok = false;
  }
  f.max_queue = GetCount(args, "max-queue", 0, ok);
  f.report_path = GetS(args, "report", "");
  return f;
}

/// The seed of the Rng that draws the historical trips both tools train
/// on: mtshare_sim's ScenarioOptions::seed, whose scenario draws them
/// first, and the Rng mtshare_serve draws them on alone.
inline uint64_t HistorySeed(const SharedFlags& f) { return f.seed + 2; }

/// The city and demand model of one tool run. BuildToolCity fills it in
/// place: the demand model, and the system the tool builds on it, keep
/// references to `network`.
struct ToolCity {
  RoadNetwork network;
  std::optional<DemandModel> demand;
};

/// Checks the config, loads the --network city (its largest strongly
/// connected component) or generates one, and makes the window's demand
/// model. Returns 0, or the exit code after a diagnostic: 2 for a bad
/// configuration, 1 for an unreadable network file.
inline int BuildToolCity(const SharedFlags& f, ToolCity* out) {
  Status valid = f.config.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "bad configuration: %s\n", valid.ToString().c_str());
    return 2;
  }
  if (!f.network_file.empty()) {
    Result<RoadNetwork> loaded = LoadEdgeList(f.network_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load network: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    out->network = ExtractLargestScc(loaded.value());
  } else {
    out->network = MakeGridCity(f.city);
  }

  DemandModelOptions dopt;
  dopt.day = f.peak ? DayType::kWorkday : DayType::kWeekend;
  dopt.seed = f.seed + 1;
  out->demand.emplace(out->network, dopt);
  return 0;
}

/// A run spec with the shared fields set (the fleet is seeded with
/// seed + 3); the tool sets the requests or the source.
inline ScenarioSpec MakeToolSpec(const SharedFlags& f) {
  ScenarioSpec spec;
  spec.scheme = f.scheme;
  spec.num_taxis = f.num_taxis;
  spec.fleet_seed = f.seed + 3;
  spec.batch_window_ms = f.batch_window_ms;
  spec.max_queue = f.max_queue;
  return spec;
}

/// The run-report context of a tool run.
inline RunReportContext MakeToolReportContext(const SharedFlags& f,
                                              const char* experiment,
                                              int32_t num_requests) {
  RunReportContext ctx;
  ctx.experiment = experiment;
  ctx.scheme = SchemeName(f.scheme);
  ctx.window = f.peak ? "peak" : "nonpeak";
  ctx.num_taxis = f.num_taxis;
  ctx.num_requests = num_requests;
  ctx.seed = f.seed;
  return ctx;
}

}  // namespace mtshare

#endif  // MTSHARE_TOOLS_TOOL_SYSTEM_H_
