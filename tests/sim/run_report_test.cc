#include "sim/run_report.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/mtshare_system.h"
#include "graph/graph_generators.h"
#include "testing/decision_digest.h"

namespace mtshare {
namespace {

/// Pulls the numeric value of `"key":` out of raw JSON text, searching from
/// the first occurrence of `section` (pass "" for top-level keys). Enough
/// of a parser for schema validation without a JSON dependency.
double NumberAfter(const std::string& json, const std::string& section,
                   const std::string& key) {
  size_t from = 0;
  if (!section.empty()) {
    from = json.find("\"" + section + "\"");
    EXPECT_NE(from, std::string::npos) << "missing section " << section;
    if (from == std::string::npos) return 0.0;
  }
  size_t at = json.find("\"" + key + "\":", from);
  EXPECT_NE(at, std::string::npos)
      << "missing key " << key << " in section " << section;
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

bool HasKey(const std::string& json, const std::string& key) {
  return json.find("\"" + key + "\":") != std::string::npos;
}

/// Whether the report's string `key` reads `value`, in either the pretty
/// or the single-line rendering.
bool StringIs(const std::string& json, const std::string& key,
              const std::string& value) {
  return json.find("\"" + key + "\": \"" + value + "\"") !=
             std::string::npos ||
         json.find("\"" + key + "\":\"" + value + "\"") != std::string::npos;
}

/// Keys of the flat object that follows the first `"section":`, in order.
std::vector<std::string> KeysOf(const std::string& json,
                                const std::string& section) {
  std::vector<std::string> keys;
  size_t at = json.find("\"" + section + "\":");
  if (at == std::string::npos) return keys;
  const size_t close = json.find('}', at);
  for (size_t q = json.find('"', json.find('{', at)); q < close;) {
    size_t end = json.find('"', q + 1);
    if (json[end + 1] == ':') keys.push_back(json.substr(q + 1, end - q - 1));
    q = json.find('"', end + 1);
  }
  return keys;
}

void ValidateReportSchema(const std::string& json) {
  EXPECT_EQ(NumberAfter(json, "", "schema_version"), 11.0);
  for (const char* key :
       {"experiment", "scheme", "window", "num_taxis", "num_requests",
        "seed", "requests", "response_ms", "waiting_min", "detour_min",
        "candidates", "phases", "oracle", "routing", "engine", "serve",
        "setup", "index_memory_bytes", "total_driver_income",
        "execution_seconds"}) {
    EXPECT_TRUE(HasKey(json, key)) << "missing top-level key " << key;
  }

  // Insertion-routing section (schema_version 2). It holds exactly these
  // keys: schema_version 11 drops the count of exact-table batch calls,
  // since exact-table legs are plain table reads. The routing section
  // follows the oracle one (the phases block has a "routing" key too).
  const std::vector<std::string> routing_keys = {
      "lb_pruned",           "fallback_queries",      "ch_active",
      "ch_shortcuts",        "ch_preprocessing_ms",   "ch_point_queries",
      "ch_bucket_queries",   "ch_upward_settled",     "ch_bucket_entries",
      "candidate_search",    "bucket_candidates",     "bucket_maintenance_ms",
      "slots_screened",      "ellipse_pruned",        "route_legs_walked",
      "route_legs_prefixed", "route_legs_searched"};
  EXPECT_EQ(KeysOf(json.substr(json.find("\"oracle\":")), "routing"),
            routing_keys);
  // Counters are cumulative and non-negative; fallbacks mean the CH
  // priming missed a leg shape, which is a bug by construction.
  for (const char* key : {"lb_pruned", "fallback_queries"}) {
    EXPECT_GE(NumberAfter(json, "routing", key), 0.0) << key;
  }
  EXPECT_EQ(NumberAfter(json, "routing", "fallback_queries"), 0.0);

  // Contraction-hierarchy counters (added in schema_version 3). Always
  // present; zero unless the run used the CH backend.
  EXPECT_TRUE(HasKey(json, "backend")) << "missing oracle backend name";
  for (const char* key :
       {"ch_active", "ch_shortcuts", "ch_preprocessing_ms",
        "ch_point_queries", "ch_bucket_queries", "ch_upward_settled",
        "ch_bucket_entries"}) {
    EXPECT_GE(NumberAfter(json, "routing", key), 0.0) << key;
  }

  // Candidate-search path counters (added in schema_version 6). The name
  // is "index" on the exact table, "ch_buckets" on a CH-backed oracle and
  // (since schema_version 10) "none" for a run that made no reachability
  // probe; the counters are cumulative, and the bucket ones are zero on
  // the exact table.
  EXPECT_TRUE(HasKey(json, "candidate_search")) << "missing candidate_search";
  EXPECT_TRUE(StringIs(json, "candidate_search", "index") ||
              StringIs(json, "candidate_search", "ch_buckets") ||
              StringIs(json, "candidate_search", "none"))
      << "candidate_search must be index|ch_buckets|none";
  for (const char* key : {"bucket_candidates", "bucket_maintenance_ms",
                          "slots_screened", "ellipse_pruned"}) {
    EXPECT_GE(NumberAfter(json, "routing", key), 0.0) << key;
  }

  // Committed shortest-path leg counters (added in schema_version 9):
  // legs walked through a resident exact-table row, legs walked to a tie
  // and the prefix searched, and legs searched for lack of a row.
  for (const char* key :
       {"route_legs_walked", "route_legs_prefixed", "route_legs_searched"}) {
    EXPECT_GE(NumberAfter(json, "routing", key), 0.0) << key;
  }

  // Simulation-core counters (added in schema_version 4). A run with any
  // requests crosses at least one release boundary and one drain round.
  // Since schema_version 8 the block holds exactly the heap core's
  // counters, and routing no longer reports a batching toggle.
  const std::vector<std::string> engine_keys = {"heap_pops", "arcs_stepped",
                                                "boundaries", "drain_rounds"};
  EXPECT_EQ(KeysOf(json, "engine"), engine_keys);
  for (const std::string& key : engine_keys) {
    EXPECT_GE(NumberAfter(json, "engine", key), 0.0) << key;
  }
  EXPECT_FALSE(HasKey(json, "batched"));
  EXPECT_GE(NumberAfter(json, "engine", "drain_rounds"), 1.0);

  // Streaming-ingest counters (added in schema_version 5). Classic runs
  // report a zero batch window with every request admitted, nothing shed.
  for (const char* key : {"batch_window_ms", "batches", "admitted", "shed",
                          "queue_depth"}) {
    EXPECT_GE(NumberAfter(json, "serve", key), 0.0) << key;
  }

  // Set-up seconds per construction step (added in schema_version 10).
  const std::vector<std::string> setup_keys = {"partition_s", "oracle_s",
                                               "landmarks_s", "transitions_s"};
  EXPECT_EQ(KeysOf(json, "setup"), setup_keys);
  for (const std::string& key : setup_keys) {
    EXPECT_GE(NumberAfter(json, "setup", key), 0.0) << key;
  }

  // Percentiles must be monotone within every distribution.
  for (const char* dist :
       {"response_ms", "waiting_min", "detour_min", "candidates"}) {
    double mn = NumberAfter(json, dist, "min");
    double p50 = NumberAfter(json, dist, "p50");
    double p90 = NumberAfter(json, dist, "p90");
    double p95 = NumberAfter(json, dist, "p95");
    double p99 = NumberAfter(json, dist, "p99");
    double mx = NumberAfter(json, dist, "max");
    EXPECT_LE(mn, p50) << dist;
    EXPECT_LE(p50, p90) << dist;
    EXPECT_LE(p90, p95) << dist;
    EXPECT_LE(p95, p99) << dist;
    EXPECT_LE(p99, mx * (1 + 1e-9)) << dist;
  }

  // Phase accounting reconciles with the engine's dispatch wall-clock:
  // phases are timed strictly inside the per-request response timers, so
  // their sum can never exceed the total by more than timer read noise.
  double attributed = NumberAfter(json, "phases", "attributed_ms");
  double total = NumberAfter(json, "phases", "dispatch_total_ms");
  double unattributed = NumberAfter(json, "phases", "unattributed_ms");
  EXPECT_GE(attributed, 0.0);
  EXPECT_GE(total, 0.0);
  EXPECT_NEAR(attributed + unattributed, total, 1e-3 * (1.0 + total));
  if (NumberAfter(json, "phases", "enabled") == 1.0) {
    EXPECT_LE(attributed, total * 1.15 + 5.0);
    double phase_sum = 0.0;
    for (const char* phase :
         {"candidate_search", "filter", "insertion", "routing"}) {
      double ms = NumberAfter(json, phase, "ms");
      EXPECT_GE(ms, 0.0) << phase;
      phase_sum += ms;
    }
    EXPECT_NEAR(phase_sum, attributed, 1e-3 * (1.0 + attributed));
  }
}

class RunReportTest : public ::testing::Test {
 protected:
  RunReportTest() {
    GridCityOptions gopt;
    gopt.rows = 14;
    gopt.cols = 14;
    gopt.seed = 33;
    net_ = MakeGridCity(gopt);
    demand_ = std::make_unique<DemandModel>(net_, DemandModelOptions{});

    ScenarioOptions sopt;
    sopt.num_requests = 150;
    sopt.num_historical_trips = 2500;
    sopt.offline_fraction = 0.2;

    config_.kappa = 16;
    config_.kt = 5;
    ScenarioSystem built =
        CreateScenarioSystem(net_, *demand_, sopt, config_).value();
    system_ = std::move(built.system);
    scenario_ = std::move(built.scenario);
  }

  Metrics RunWithTiming(SchemeKind scheme) {
    ScenarioSpec spec;
    spec.scheme = scheme;
    spec.requests = &scenario_.requests;
    spec.num_taxis = 25;
    spec.collect_phase_timing = true;
    Result<Metrics> r = system_->RunScenario(spec);
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  }

  RunReportContext Context() {
    RunReportContext ctx;
    ctx.experiment = "run_report_test";
    ctx.scheme = "mT-Share";
    ctx.window = "peak";
    ctx.num_taxis = 25;
    ctx.num_requests = static_cast<int32_t>(scenario_.requests.size());
    ctx.seed = 33;
    return ctx;
  }

  RoadNetwork net_;
  std::unique_ptr<DemandModel> demand_;
  Scenario scenario_;
  SystemConfig config_;
  std::unique_ptr<MTShareSystem> system_;
};

TEST_F(RunReportTest, SchemaIsValidForEveryScheme) {
  for (SchemeKind scheme :
       {SchemeKind::kNoSharing, SchemeKind::kTShare, SchemeKind::kPGreedyDp,
        SchemeKind::kMtShare, SchemeKind::kMtSharePro}) {
    Metrics m = RunWithTiming(scheme);
    std::string json = RunReportJson(Context(), m);
    SCOPED_TRACE(SchemeName(scheme));
    ValidateReportSchema(json);
    EXPECT_EQ(NumberAfter(json, "phases", "enabled"), 1.0);
    // Something actually dispatched, so at least one phase saw calls.
    double calls = 0.0;
    for (const char* phase :
         {"candidate_search", "filter", "insertion", "routing"}) {
      calls += NumberAfter(json, phase, "calls");
    }
    EXPECT_GT(calls, 0.0);
    // Every scheme reads its insertion legs (and No-Sharing its pickup
    // probes) from the exact table's rows.
    EXPECT_GT(NumberAfter(json, "oracle", "row_hits"), 0.0);
    // The engine did real heap work: every assigned route is armed on the
    // heap and popped as the taxi moves.
    EXPECT_GT(NumberAfter(json, "engine", "heap_pops"), 0.0);
    EXPECT_GT(NumberAfter(json, "engine", "arcs_stepped"), 0.0);
    // The 14x14 city runs on the exact table: every scheme but pGreedyDP,
    // which makes no reachability probe, answers them with table reads.
    EXPECT_TRUE(StringIs(json, "candidate_search",
                         scheme == SchemeKind::kPGreedyDp ? "none" : "index"));
    // The system was built by bipartite k-means, so partitioning took
    // measurable time.
    EXPECT_GT(NumberAfter(json, "setup", "partition_s"), 0.0);
  }
}

TEST_F(RunReportTest, DisabledTimingReportsZeroPhases) {
  ScenarioSpec spec;
  spec.scheme = SchemeKind::kMtShare;
  spec.requests = &scenario_.requests;
  spec.num_taxis = 25;
  spec.collect_phase_timing = false;
  Result<Metrics> r = system_->RunScenario(spec);
  ASSERT_TRUE(r.ok());
  std::string json = RunReportJson(Context(), r.value());
  EXPECT_EQ(NumberAfter(json, "phases", "enabled"), 0.0);
  EXPECT_EQ(NumberAfter(json, "phases", "attributed_ms"), 0.0);
  ValidateReportSchema(json);
}

TEST_F(RunReportTest, SingleLineModeHasNoNewlines) {
  Metrics m = RunWithTiming(SchemeKind::kMtShare);
  std::string line = RunReportJson(Context(), m, /*indent=*/0);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  ValidateReportSchema(line);
  // Pretty and single-line renderings agree once whitespace is dropped.
  std::string pretty = RunReportJson(Context(), m, /*indent=*/2);
  std::string squashed;
  for (char c : pretty) {
    if (c != '\n' && c != ' ') squashed += c;
  }
  std::string line_squashed;
  for (char c : line) {
    if (c != ' ') line_squashed += c;
  }
  EXPECT_EQ(squashed, line_squashed);
}

TEST_F(RunReportTest, EscapesStringsAndAppendsLines) {
  Metrics m = RunWithTiming(SchemeKind::kNoSharing);
  RunReportContext ctx = Context();
  ctx.experiment = "quo\"te\\back\nline";
  std::string json = RunReportJson(ctx, m);
  EXPECT_NE(json.find("quo\\\"te\\\\back\\nline"), std::string::npos);

  std::string path = testing::TempDir() + "mtshare_run_report_append.json";
  std::remove(path.c_str());
  ASSERT_TRUE(AppendRunReportLine(path, Context(), m).ok());
  ASSERT_TRUE(AppendRunReportLine(path, Context(), m).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    ValidateReportSchema(line);
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST_F(RunReportTest, WriteRunReportFailsOnBadPath) {
  Metrics m = RunWithTiming(SchemeKind::kNoSharing);
  Status s = WriteRunReport("/nonexistent-dir/report.json", Context(), m);
  EXPECT_FALSE(s.ok());
}

#ifdef MTSHARE_SIM_BINARY

int RunCommand(const std::string& command) {
  int rc = std::system(command.c_str());
  return rc < 0 ? rc : WEXITSTATUS(rc);
}

/// Runs mtshare_sim with `flags` and returns its report; with
/// `per_request`, also the rows --per-request wrote. `name` keeps the
/// files of tests that run in parallel apart.
std::string RunSim(const std::string& name, const std::string& flags,
                   std::string* per_request = nullptr) {
  const std::string json = testing::TempDir() + "mtshare_sim_" + name;
  const std::string csv = json + ".csv";
  std::remove(json.c_str());
  std::remove(csv.c_str());
  const std::string cmd = std::string(MTSHARE_SIM_BINARY) + " " + flags +
                          " --report=" + json + " --per-request=" + csv +
                          " > /dev/null";
  EXPECT_EQ(RunCommand(cmd), 0) << cmd;
  std::stringstream report, rows;
  report << std::ifstream(json).rdbuf();
  rows << std::ifstream(csv).rdbuf();
  if (per_request != nullptr) *per_request = rows.str();
  std::remove(json.c_str());
  std::remove(csv.c_str());
  return report.str();
}

/// Committed shortest-path legs walked through a resident exact-table row,
/// to the end or to a tie.
double RouteLegsWalked(const std::string& json) {
  return NumberAfter(json, "routing", "route_legs_walked") +
         NumberAfter(json, "routing", "route_legs_prefixed");
}

/// FNV-1a digest of --per-request rows without their eighth column,
/// response_ms, which is wall clock. The rows carry every bit of each
/// double, so the digest pins times and fares exactly.
uint64_t RowsDigest(const std::string& csv) {
  Fnv1a fnv;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) {
    size_t at = 0;
    for (int i = 0; i < 7; ++i) at = line.find(',', at) + 1;
    line.erase(at, line.find(',', at) + 1 - at);
    for (char c : line) fnv.Add(uint64_t{static_cast<unsigned char>(c)});
  }
  return fnv.value();
}

TEST(MtshareSimCliTest, ReportFlagEmitsValidJson) {
  std::string rows;
  const std::string json = RunSim(
      "report",
      "--scheme=mt-share --rows=14 --cols=14 --taxis=20 --requests=120",
      &rows);
  ValidateReportSchema(json);
  EXPECT_EQ(NumberAfter(json, "", "num_taxis"), 20.0);
  EXPECT_EQ(NumberAfter(json, "", "num_requests"), 120.0);
  EXPECT_EQ(NumberAfter(json, "phases", "enabled"), 1.0);
  // The 14x14 city runs on the exact table, so reachability is table reads
  // and committed legs walk resident rows. A zero below means a counter or
  // timer is not wired through to the report.
  EXPECT_TRUE(StringIs(json, "candidate_search", "index"));
  EXPECT_GT(RouteLegsWalked(json), 0.0);
  EXPECT_GT(NumberAfter(json, "serve", "admitted"), 0.0);
  EXPECT_GT(NumberAfter(json, "setup", "partition_s"), 0.0);
  // mtshare_sim's decisions, pinned: ServeCliTest compares mtshare_serve
  // with mtshare_sim, and a drift in the history both train on moves both.
  EXPECT_EQ(NumberAfter(json, "requests", "served"), 72.0);
  EXPECT_EQ(RowsDigest(rows), 0x43144cf1db76096full)
      << std::hex << RowsDigest(rows);
}

TEST(MtshareSimCliTest, RejectsMalformedNumericFlags) {
  // Regression: "--taxis=abc" used to atoi to 0 and run an empty fleet,
  // and "--seed=-1" / "--seed=abc" went through a double parse that
  // silently fell back to the default seed, and a negative count must
  // not wrap. A misspelled key ("--taxi") used to be ignored and run the
  // default fleet; the removed LRU oracle backend is no longer a valid
  // --oracle, and the removed sweep core, per-pair routing,
  // candidate-path and worker-thread settings are unknown flags, whatever
  // their value. Any --window but peak or nonpeak used to run the nonpeak
  // profile.
  for (const char* flag :
       {"--taxis=abc", "--requests=12x", "--rho=", "--taxis=-2",
        "--seed=4 2", "--seed=-1", "--seed=abc", "--seed=4.5",
        "--batch-window-ms=abc", "--batch-window-ms=-5", "--max-queue=x",
        "--oracle=lru", "--taxi=5", "--engine=sweep", "--batched=0",
        "--candidates=magic", "--candidates=", "--candidates=INDEX",
        "--candidates=buckets", "--candidates=ch-buckets",
        "--candidates=index", "--candidates=ch_buckets", "--threads=1",
        "--threads=4", "--window=weekend", "--window=Peak", "--window="}) {
    std::string cmd = std::string(MTSHARE_SIM_BINARY) + " \"" +
                      std::string(flag) + "\" > /dev/null 2>&1";
    EXPECT_EQ(RunCommand(cmd), 2) << flag;
  }
}

TEST(MtshareSimCliTest, RejectsOutOfRangeScenarioOptions) {
  // An offline fraction outside [0, 1] used to build the whole system and
  // then abort in DrawWindowRequests; it now exits 2 with a diagnostic.
  const std::string err = testing::TempDir() + "mtshare_sim_offline.err";
  for (const char* flag : {"--offline=1.5", "--offline=-0.5"}) {
    std::remove(err.c_str());
    const std::string cmd = std::string(MTSHARE_SIM_BINARY) + " " + flag +
                            " --rows=8 --cols=8 --taxis=5 --requests=20"
                            " > /dev/null 2> " + err;
    EXPECT_EQ(RunCommand(cmd), 2) << flag;
    std::stringstream message;
    message << std::ifstream(err).rdbuf();
    EXPECT_NE(message.str().find("offline fraction"), std::string::npos)
        << flag << ": " << message.str();
  }
  std::remove(err.c_str());
}

TEST(MtshareSimCliTest, RejectsDegenerateCity) {
  // A one-row or one-column grid used to abort in MakeGridCity's CHECK
  // (SIGABRT, exit 134); the flag is now rejected before anything is
  // built. Small values only: a huge grid allocates before any check.
  const std::string err = testing::TempDir() + "mtshare_sim_city.err";
  for (const char* flags : {"--rows=1 --cols=5", "--rows=2 --cols=1"}) {
    std::remove(err.c_str());
    const std::string cmd = std::string(MTSHARE_SIM_BINARY) + " " + flags +
                            " --taxis=5 --requests=20 > /dev/null 2> " + err;
    EXPECT_EQ(RunCommand(cmd), 2) << flags;
    std::stringstream message;
    message << std::ifstream(err).rdbuf();
    EXPECT_NE(message.str().find("--rows and --cols must be >= 2"),
              std::string::npos)
        << flags << ": " << message.str();
  }
  std::remove(err.c_str());
}

TEST(MtshareSimCliTest, ChBucketsPathEmitsBucketCounters) {
  const std::string json = RunSim(
      "buckets",
      "--scheme=mt-share --rows=14 --cols=14 --taxis=20 --requests=120"
      " --oracle=ch");
  ValidateReportSchema(json);
  EXPECT_TRUE(StringIs(json, "backend", "ch"));
  EXPECT_TRUE(StringIs(json, "candidate_search", "ch_buckets"));
  EXPECT_GT(NumberAfter(json, "routing", "bucket_candidates"), 0.0);
  EXPECT_GT(NumberAfter(json, "routing", "slots_screened"), 0.0);
  EXPECT_EQ(NumberAfter(json, "routing", "fallback_queries"), 0.0);
  EXPECT_EQ(RouteLegsWalked(json), 0.0);  // the CH keeps no rows
}

TEST(MtshareSimCliTest, PGreedyDpOnChNamesNoReachabilitySource) {
  // pGreedyDP makes no pickup-reachability probe (its DP rejects
  // unreachable pickups itself), so even on the CH oracle its report
  // names no source.
  const std::string json = RunSim(
      "pgreedy",
      "--scheme=pgreedy-dp --rows=12 --cols=12 --taxis=15 --requests=80"
      " --oracle=ch");
  ValidateReportSchema(json);
  EXPECT_TRUE(StringIs(json, "candidate_search", "none"));
}

TEST(MtshareSimCliTest, MtShareProNonpeakServesStreetHails) {
  // mT-Share-pro is the only scheme that reaches Algorithm 4 (probabilistic
  // legs) and idle cruising; a nonpeak run that serves no street hail has
  // lost them. Its decisions are pinned like the exact run's.
  std::string rows;
  const std::string json = RunSim(
      "pro",
      "--scheme=mt-share-pro --window=nonpeak --rows=12 --cols=12"
      " --taxis=15 --requests=80",
      &rows);
  ValidateReportSchema(json);
  EXPECT_TRUE(StringIs(json, "scheme", "mT-Share-pro"));
  EXPECT_GT(NumberAfter(json, "requests", "served_offline"), 0.0);
  EXPECT_EQ(NumberAfter(json, "requests", "served"), 42.0);
  EXPECT_EQ(RowsDigest(rows), 0x468e31ba6bfeafc1ull)
      << std::hex << RowsDigest(rows);
}

TEST(MtshareSimCliTest, AcceptsFullUint64SeedRange) {
  // UINT64_MAX is a legal seed; the old double path rounded it.
  std::string cmd = std::string(MTSHARE_SIM_BINARY) +
                    " --rows=8 --cols=8 --taxis=5 --requests=20"
                    " --seed=18446744073709551615 > /dev/null 2>&1";
  EXPECT_EQ(RunCommand(cmd), 0);
}

#endif  // MTSHARE_SIM_BINARY

}  // namespace
}  // namespace mtshare
