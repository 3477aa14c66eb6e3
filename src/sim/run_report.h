#ifndef MTSHARE_SIM_RUN_REPORT_H_
#define MTSHARE_SIM_RUN_REPORT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "sim/metrics.h"

namespace mtshare {

/// Identifies one run inside a report: which harness produced it and with
/// what headline parameters. Free-form fields stay empty when unknown.
struct RunReportContext {
  /// Producing harness, e.g. "mtshare_sim" or a bench banner slug.
  std::string experiment;
  std::string scheme;
  /// "peak" / "nonpeak" / "" when not applicable.
  std::string window;
  int32_t num_taxis = 0;
  int32_t num_requests = 0;
  uint64_t seed = 0;
};

/// Serializes context + metrics as a structured JSON run report
/// (schema_version 12; layout documented in EXPERIMENTS.md). `indent` > 0
/// pretty-prints with that many spaces per level; `indent` == 0 emits one
/// line (the BENCH_*.json trajectory format).
std::string RunReportJson(const RunReportContext& context, const Metrics& m,
                          int indent = 2);

/// Writes a pretty-printed report to `path`, replacing any existing file.
Status WriteRunReport(const std::string& path, const RunReportContext& context,
                      const Metrics& m);

/// Appends one single-line JSON entry to `path` (creating it if needed) —
/// the bench trajectory format: one run per line, greppable and
/// concatenation-safe across bench invocations.
Status AppendRunReportLine(const std::string& path,
                           const RunReportContext& context, const Metrics& m);

}  // namespace mtshare

#endif  // MTSHARE_SIM_RUN_REPORT_H_
