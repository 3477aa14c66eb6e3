#include "bench_common.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/string_util.h"
#include "sim/run_report.h"

namespace mtshare::bench {

namespace {

// Trajectory state armed by the last PrintBanner.
std::string g_report_path;  // empty = reporting disabled / not armed
std::string g_report_experiment;

std::string SlugFromBanner(const std::string& experiment) {
  std::string slug;
  for (char c : experiment) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
    if (slug.size() >= 48) break;
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug.empty() ? "run" : slug;
}

}  // namespace

BenchScale GetScale() {
  BenchScale scale;
  const char* fast = std::getenv("MTSHARE_BENCH_FAST");
  if (fast != nullptr && fast[0] == '1') {
    scale.peak_requests /= 2;
    scale.nonpeak_requests /= 2;
    scale.fleet_sizes = {40, 80, 120, 160};
    scale.default_fleet = 160;
    scale.historical_trips /= 2;
  }
  return scale;
}

RoadNetwork MakeBenchCity() {
  GridCityOptions opt;
  opt.rows = 48;
  opt.cols = 48;
  opt.spacing_m = 150.0;
  opt.jitter_m = 25.0;
  opt.seed = 20200961;  // ICDE'20 paper id
  return MakeGridCity(opt);
}

BenchEnv::BenchEnv(Window window, const SystemConfig& config,
                   int32_t num_requests, double offline_fraction,
                   uint64_t seed, int32_t window_hours)
    : window_(window), config_(config), network_(MakeBenchCity()) {
  BenchScale scale = GetScale();
  DemandModelOptions dopt;
  dopt.day = window == Window::kPeak ? DayType::kWorkday : DayType::kWeekend;
  dopt.seed = seed;
  demand_ = std::make_unique<DemandModel>(network_, dopt);

  ScenarioOptions sopt;
  if (window == Window::kPeak) {
    sopt.t_begin = 8 * 3600.0;
    sopt.t_end = sopt.t_begin + window_hours * 3600.0;
    sopt.num_requests =
        num_requests > 0 ? num_requests : scale.peak_requests;
    sopt.offline_fraction = offline_fraction >= 0 ? offline_fraction : 0.0;
  } else {
    sopt.t_begin = 10 * 3600.0;
    sopt.t_end = sopt.t_begin + window_hours * 3600.0;
    sopt.num_requests =
        num_requests > 0 ? num_requests : scale.nonpeak_requests;
    sopt.offline_fraction = offline_fraction >= 0
                                ? offline_fraction
                                : scale.nonpeak_offline_fraction;
  }
  sopt.rho = config_.rho;
  sopt.num_historical_trips = scale.historical_trips;
  sopt.seed = seed + 1;
  auto created = CreateScenarioSystem(network_, *demand_, sopt, config_);
  if (!created.ok()) {
    std::fprintf(stderr, "bench system: %s\n",
                 created.status().ToString().c_str());
    std::exit(2);
  }
  system_ = std::move(created.value().system);
  scenario_ = std::move(created.value().scenario);
}

Metrics BenchEnv::Run(SchemeKind scheme, int32_t num_taxis) {
  ScenarioSpec spec;
  spec.scheme = scheme;
  spec.requests = &scenario_.requests;
  spec.num_taxis = num_taxis;
  Result<Metrics> result = system_->RunScenario(spec);
  MTSHARE_CHECK(result.ok());
  Metrics metrics = std::move(result).value();
  RecordRun(spec, metrics);
  return metrics;
}

void BenchEnv::RecordRun(const ScenarioSpec& spec, const Metrics& metrics) {
  if (g_report_path.empty()) return;
  RunReportContext ctx;
  ctx.experiment = g_report_experiment;
  ctx.scheme = SchemeName(spec.scheme);
  ctx.window = window_ == Window::kPeak ? "peak" : "nonpeak";
  ctx.num_taxis = spec.num_taxis;
  ctx.num_requests = static_cast<int32_t>(scenario_.requests.size());
  ctx.seed = spec.fleet_seed;
  Status appended = AppendRunReportLine(g_report_path, ctx, metrics);
  if (!appended.ok()) {
    // A broken trajectory file must not kill a multi-minute bench run;
    // warn once and disarm.
    std::fprintf(stderr, "bench report disabled: %s\n",
                 appended.ToString().c_str());
    g_report_path.clear();
  }
}

void RecordTrajectoryRun(const RunReportContext& ctx, const Metrics& metrics) {
  if (g_report_path.empty()) return;
  RunReportContext line = ctx;
  if (line.experiment.empty()) line.experiment = g_report_experiment;
  Status appended = AppendRunReportLine(g_report_path, line, metrics);
  if (!appended.ok()) {
    std::fprintf(stderr, "bench report disabled: %s\n",
                 appended.ToString().c_str());
    g_report_path.clear();
  }
}

void PrintCaption(const std::string& experiment,
                  const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

void PrintBanner(const std::string& experiment, const std::string& paper_ref) {
  PrintCaption(experiment, paper_ref);
  // Arm trajectory logging: one BENCH_<slug>.json per experiment, one JSON
  // line per subsequent run.
  const char* enabled = std::getenv("MTSHARE_BENCH_REPORT");
  if (enabled != nullptr && enabled[0] == '0') {
    g_report_path.clear();
    return;
  }
  const char* dir = std::getenv("MTSHARE_BENCH_REPORT_DIR");
  std::string prefix = dir != nullptr && dir[0] != '\0'
                           ? std::string(dir) + "/"
                           : std::string();
  g_report_experiment = SlugFromBanner(experiment);
  g_report_path = prefix + "BENCH_" + g_report_experiment + ".json";
}

void PrintHeader(const std::vector<std::string>& columns) {
  for (const auto& c : columns) std::printf("%14s", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) std::printf("  ------------");
  std::printf("\n");
}

void PrintRow(const std::vector<std::string>& cells) {
  for (const auto& c : cells) std::printf("%14s", c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

std::string Fmt(double value, int precision) {
  return FormatDouble(value, precision);
}

}  // namespace mtshare::bench
