#include "sim/run_report.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>

#include "matching/phase_timers.h"

namespace mtshare {
namespace {

std::string EscapeJson(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Minimal structured JSON emitter: tracks nesting depth and whether the
/// current container needs a separating comma. indent == 0 emits one line.
class JsonWriter {
 public:
  explicit JsonWriter(int indent) : indent_(indent) {}

  void BeginObject() {
    Separate();
    out_ += '{';
    first_ = true;
    ++depth_;
  }
  void EndObject() {
    --depth_;
    if (!first_) Newline();
    out_ += '}';
    first_ = false;
  }
  void Key(const std::string& name) {
    Separate();
    Newline();
    out_ += '"' + EscapeJson(name) + "\":";
    if (indent_ > 0) out_ += ' ';
    pending_value_ = true;
  }
  void String(const std::string& v) { Raw('"' + EscapeJson(v) + '"'); }
  void Double(double v) { Raw(Num(v)); }
  void Int(int64_t v) { Raw(std::to_string(v)); }
  void UInt(uint64_t v) { Raw(std::to_string(v)); }

  const std::string& str() const { return out_; }

 private:
  void Raw(const std::string& text) {
    out_ += text;
    pending_value_ = false;
    first_ = false;
  }
  void Separate() {
    if (pending_value_) {
      pending_value_ = false;  // a key was just written; no comma
      return;
    }
    if (!first_) out_ += ',';
  }
  void Newline() {
    if (indent_ == 0) return;
    out_ += '\n';
    out_.append(static_cast<size_t>(depth_ * indent_), ' ');
  }

  int indent_;
  int depth_ = 0;
  bool first_ = true;
  bool pending_value_ = false;
  std::string out_;
};

void EmitDistribution(JsonWriter& w, const std::string& name,
                      const LatencyHistogram& h) {
  w.Key(name);
  w.BeginObject();
  w.Key("count");
  w.Int(h.count());
  w.Key("mean");
  w.Double(h.Mean());
  w.Key("min");
  w.Double(h.Min());
  w.Key("p50");
  w.Double(h.Percentile(0.50));
  w.Key("p90");
  w.Double(h.Percentile(0.90));
  w.Key("p95");
  w.Double(h.Percentile(0.95));
  w.Key("p99");
  w.Double(h.Percentile(0.99));
  w.Key("max");
  w.Double(h.Max());
  w.EndObject();
}

}  // namespace

std::string RunReportJson(const RunReportContext& context, const Metrics& m,
                          int indent) {
  JsonWriter w(indent);
  w.BeginObject();
  w.Key("schema_version");
  w.Int(12);
  w.Key("experiment");
  w.String(context.experiment);
  w.Key("scheme");
  w.String(context.scheme);
  w.Key("window");
  w.String(context.window);
  w.Key("num_taxis");
  w.Int(context.num_taxis);
  w.Key("num_requests");
  w.Int(context.num_requests);
  w.Key("seed");
  w.UInt(context.seed);

  w.Key("requests");
  w.BeginObject();
  w.Key("total");
  w.Int(m.TotalRequests());
  w.Key("served");
  w.Int(m.ServedRequests());
  w.Key("served_online");
  w.Int(m.ServedOnline());
  w.Key("served_offline");
  w.Int(m.ServedOffline());
  w.EndObject();

  EmitDistribution(w, "response_ms", m.response_hist());
  EmitDistribution(w, "waiting_min", m.waiting_hist());
  EmitDistribution(w, "detour_min", m.detour_hist());
  EmitDistribution(w, "candidates", m.candidates_hist());

  // Per-phase dispatch breakdown, reconciled against the engine's total
  // dispatcher wall-clock: attributed_ms + unattributed_ms ==
  // dispatch_total_ms (the residual is glue and index bookkeeping between
  // the instrumented sections — or timing disabled, in which case every
  // phase reads zero).
  const double attributed_ms = m.phases.total_seconds() * 1e3;
  const double total_ms = m.TotalDispatchMs();
  w.Key("phases");
  w.BeginObject();
  w.Key("enabled");
  w.Int(m.phases.enabled ? 1 : 0);
  for (size_t i = 0; i < kNumDispatchPhases; ++i) {
    w.Key(DispatchPhaseName(static_cast<DispatchPhase>(i)));
    w.BeginObject();
    w.Key("ms");
    w.Double(m.phases.seconds[i] * 1e3);
    w.Key("calls");
    w.Int(m.phases.calls[i]);
    w.EndObject();
  }
  w.Key("attributed_ms");
  w.Double(attributed_ms);
  w.Key("dispatch_total_ms");
  w.Double(total_ms);
  w.Key("unattributed_ms");
  w.Double(total_ms - attributed_ms);
  w.Key("offline_probe_ms");
  w.Double(m.offline_probe_ms);
  w.EndObject();

  // schema_version 3 adds oracle.backend and the routing ch_* block.
  w.Key("oracle");
  w.BeginObject();
  w.Key("backend");
  w.String(m.oracle_backend);
  w.Key("queries");
  w.Int(m.oracle_queries);
  w.Key("row_hits");
  w.Int(m.oracle_row_hits);
  w.Key("row_misses");
  w.Int(m.oracle_row_misses);
  w.EndObject();

  // Insertion routing: lower-bound-pruned candidates, and CH legs the
  // priming missed that fell back to the oracle (expected 0 — a nonzero
  // value means the priming closure missed a leg shape). schema_version 11
  // drops the count of exact-table batch calls: exact-table legs are plain
  // table reads, counted in oracle.queries. The ch_* counters describe the
  // contraction-hierarchy backend (all zero when routing ran on the exact
  // table).
  w.Key("routing");
  w.BeginObject();
  w.Key("lb_pruned");
  w.Int(m.routing.lb_pruned);
  w.Key("fallback_queries");
  w.Int(m.routing.fallback_queries);
  w.Key("ch_active");
  w.Int(m.routing.ch_active ? 1 : 0);
  w.Key("ch_shortcuts");
  w.Int(m.routing.ch_shortcuts);
  w.Key("ch_preprocessing_ms");
  w.Double(m.routing.ch_preprocessing_ms);
  w.Key("ch_point_queries");
  w.Int(m.routing.ch_point_queries);
  w.Key("ch_bucket_queries");
  w.Int(m.routing.ch_bucket_queries);
  w.Key("ch_upward_settled");
  w.Int(m.routing.ch_upward_settled);
  w.Key("ch_bucket_entries");
  w.Int(m.routing.ch_bucket_entries);
  // schema_version 6 adds the candidate-search path (DESIGN.md §14):
  // which source answered pickup reachability ("ch_buckets" on a
  // CH-backed oracle once the scheme swept, "index" on the exact table,
  // and since schema_version 10 "none" when the run made no probe, as
  // pGreedyDP never does), how many taxis the last-stop bucket sweeps
  // returned, the bucket upkeep cost, and the detour-ellipse screen's slot
  // traffic. The bucket counters are zero on the exact table.
  w.Key("candidate_search");
  w.String(m.routing.reach_probes == 0 ? "none"
           : m.routing.bucket_search   ? "ch_buckets"
                                       : "index");
  w.Key("bucket_candidates");
  w.Int(m.routing.bucket_candidates);
  w.Key("bucket_maintenance_ms");
  w.Double(m.routing.bucket_maintenance_ms);
  w.Key("slots_screened");
  w.Int(m.routing.slots_screened);
  w.Key("ellipse_pruned");
  w.Int(m.routing.ellipse_pruned);
  // schema_version 9 adds how committed shortest-path legs were built
  // (DESIGN.md §5): walked back through the source's resident exact-table
  // row, walked to a tie and the prefix searched, or searched for lack of
  // a row (every leg on the CH backend).
  w.Key("route_legs_walked");
  w.Int(m.routing.route_legs.walked);
  w.Key("route_legs_prefixed");
  w.Int(m.routing.route_legs.prefixed);
  w.Key("route_legs_searched");
  w.Int(m.routing.route_legs.searched);
  // schema_version 12 adds two-phase route planning (DESIGN.md §5), from
  // the planner that plans mT-Share-pro's routes and idle cruises (all
  // zero without one): Algorithm 4 legs, their weighted searches, the
  // legs that fell back and the landmark-path DFS frames; Algorithm 3
  // legs, those whose filtered search found no path, and how those
  // unrestricted legs were built, as for route_legs_* above.
  const RoutePlannerStats& planner = m.routing.planner;
  w.Key("prob_legs");
  w.Int(planner.prob_legs);
  w.Key("prob_attempts");
  w.Int(planner.prob_attempts);
  w.Key("prob_fallbacks");
  w.Int(planner.prob_fallbacks);
  w.Key("prob_enumeration_frames");
  w.Int(planner.enumeration_frames);
  w.Key("basic_legs");
  w.Int(planner.basic_legs);
  w.Key("basic_no_path");
  w.Int(planner.basic_no_path);
  w.Key("basic_no_path_walked");
  w.Int(planner.basic_no_path_legs.walked);
  w.Key("basic_no_path_prefixed");
  w.Int(planner.basic_no_path_legs.prefixed);
  w.Key("basic_no_path_searched");
  w.Int(planner.basic_no_path_legs.searched);
  w.EndObject();

  // schema_version 4 adds the engine block: the advancement core's work
  // counters. schema_version 8 drops the keys of the removed sweep core
  // and boundary deferral, and routing's batching toggle.
  w.Key("engine");
  w.BeginObject();
  w.Key("heap_pops");
  w.Int(m.engine.heap_pops);
  w.Key("arcs_stepped");
  w.Int(m.engine.arcs_stepped);
  w.Key("boundaries");
  w.Int(m.engine.boundaries);
  w.Key("drain_rounds");
  w.Int(m.engine.drain_rounds);
  w.EndObject();

  // schema_version 5 adds the serve block: the streaming-ingest discipline
  // (batch window) and its admission/backpressure counters. Classic runs
  // report batch_window_ms 0, one request per dispatch, nothing shed.
  w.Key("serve");
  w.BeginObject();
  w.Key("batch_window_ms");
  w.Double(m.serve.batch_window_ms);
  w.Key("batches");
  w.Int(m.serve.batches);
  w.Key("admitted");
  w.Int(m.serve.admitted);
  w.Key("shed");
  w.Int(m.serve.shed);
  w.Key("queue_depth");
  w.Int(m.serve.queue_depth);
  w.EndObject();

  // schema_version 10 adds the setup block: the seconds each step of
  // building the system took, paid once per system.
  w.Key("setup");
  w.BeginObject();
  w.Key("partition_s");
  w.Double(m.setup.partition_s);
  w.Key("oracle_s");
  w.Double(m.setup.oracle_s);
  w.Key("landmarks_s");
  w.Double(m.setup.landmarks_s);
  w.Key("transitions_s");
  w.Double(m.setup.transitions_s);
  w.EndObject();

  w.Key("index_memory_bytes");
  w.UInt(m.index_memory_bytes);
  w.Key("total_driver_income");
  w.Double(m.total_driver_income);
  w.Key("execution_seconds");
  w.Double(m.execution_seconds);
  w.EndObject();
  return w.str();
}

Status WriteRunReport(const std::string& path,
                      const RunReportContext& context, const Metrics& m) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot write run report: " + path);
  out << RunReportJson(context, m, /*indent=*/2) << "\n";
  out.flush();
  if (!out) return Status::IoError("short write to run report: " + path);
  return Status::OK();
}

Status AppendRunReportLine(const std::string& path,
                           const RunReportContext& context, const Metrics& m) {
  std::ofstream out(path, std::ios::app);
  if (!out) return Status::IoError("cannot append run report: " + path);
  out << RunReportJson(context, m, /*indent=*/0) << "\n";
  out.flush();
  if (!out) return Status::IoError("short write to run report: " + path);
  return Status::OK();
}

}  // namespace mtshare
