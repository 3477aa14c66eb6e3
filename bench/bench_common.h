#ifndef MTSHARE_BENCH_BENCH_COMMON_H_
#define MTSHARE_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "core/mtshare_system.h"
#include "graph/graph_generators.h"
#include "sim/run_report.h"

namespace mtshare::bench {

/// Evaluation window (paper Sec. V-A1): peak = 8:00-9:00 of a workday with
/// the most hourly requests, nonpeak = 10:00-11:00 of a weekend with ~1/3
/// of the requests hidden as offline street hails.
enum class Window { kPeak, kNonPeak };

/// Workload scale relative to the paper. The paper runs 214k vertices /
/// 29.5k peak requests / 500-3000 taxis; the benches default to a ~2.3k
/// vertex city, ~2.4k peak requests and 60-300 taxis (every ratio
/// request:taxi preserved at ~1/10 scale; see EXPERIMENTS.md). Set the
/// environment variable MTSHARE_BENCH_FAST=1 to halve request counts and
/// fleet sizes for smoke runs.
struct BenchScale {
  int32_t peak_requests = 2400;
  int32_t nonpeak_requests = 1300;
  double nonpeak_offline_fraction = 5000.0 / 15480.0;
  std::vector<int32_t> fleet_sizes = {60, 120, 180, 240, 300};
  int32_t default_fleet = 300;
  int32_t historical_trips = 30000;
};

/// Scale adjusted for MTSHARE_BENCH_FAST.
BenchScale GetScale();

/// The bench city: a 48x48 perturbed grid, 150 m blocks (~7 km on a side,
/// matching the paper's 2nd-Ring-Road extent), largest SCC.
RoadNetwork MakeBenchCity();

/// A fully constructed evaluation environment: city, demand model for the
/// window's day type, a scenario, and an MTShareSystem with the paper's
/// default parameters (overridable).
class BenchEnv {
 public:
  BenchEnv(Window window, const SystemConfig& config = SystemConfig{},
           int32_t num_requests = -1, double offline_fraction = -1.0,
           uint64_t seed = 77, int32_t window_hours = 1);

  MTShareSystem& system() { return *system_; }
  const Scenario& scenario() const { return scenario_; }
  const RoadNetwork& network() const { return network_; }
  const SystemConfig& config() const { return config_; }
  Window window() const { return window_; }

  /// Runs one scheme with the given fleet size on this scenario.
  Metrics Run(SchemeKind scheme, int32_t num_taxis);

  /// Appends this run to the current bench trajectory file (one JSON line
  /// per run in BENCH_<experiment>.json; see PrintBanner). Run calls it
  /// automatically; custom loops that build their own specs can call it
  /// for extra runs. No-op when reporting is disabled.
  void RecordRun(const ScenarioSpec& spec, const Metrics& metrics);

 private:
  Window window_;
  SystemConfig config_;
  RoadNetwork network_;
  std::unique_ptr<DemandModel> demand_;
  Scenario scenario_;
  std::unique_ptr<MTShareSystem> system_;
};

/// Printing helpers for paper-style tables. PrintCaption prints an
/// experiment's title block. PrintBanner prints the same block and
/// additionally arms run-report trajectory logging: every subsequent
/// BenchEnv::Run appends one JSON line per run to
/// BENCH_<experiment-slug>.json (in MTSHARE_BENCH_REPORT_DIR, default the
/// working directory; set MTSHARE_BENCH_REPORT=0 to disable). The line
/// format is the run-report schema documented in EXPERIMENTS.md.
void PrintCaption(const std::string& experiment, const std::string& paper_ref);
void PrintBanner(const std::string& experiment, const std::string& paper_ref);

/// Appends one run to the armed trajectory file with a caller-built context
/// — for benches that construct their own network/system instead of a
/// BenchEnv (bench_scale streams requests through a RequestSource, so no
/// scenario request vector exists). ctx.experiment defaults to the banner
/// slug when left empty. No-op until PrintBanner armed reporting.
void RecordTrajectoryRun(const RunReportContext& ctx, const Metrics& metrics);
void PrintHeader(const std::vector<std::string>& columns);
void PrintRow(const std::vector<std::string>& cells);
std::string Fmt(double value, int precision = 2);

}  // namespace mtshare::bench

#endif  // MTSHARE_BENCH_BENCH_COMMON_H_
