// Tier-1 coverage for the streaming ingest seam (DESIGN.md §12): a
// StreamRequestSource fed the serialized log of a request vector must
// replay byte-identically to the vector itself for every scheme and every
// batch window, Δt=0 must reproduce the classic per-request replay, and
// malformed streams must surface line-tagged errors through RunScenario
// instead of crashing the engine.
#include "sim/request_source.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/mtshare_system.h"
#include "demand/trip_io.h"
#include "graph/graph_generators.h"
#include "testing/decision_digest.h"

namespace mtshare {
namespace {

class RequestSourceTest : public ::testing::Test {
 protected:
  RequestSourceTest() {
    GridCityOptions gopt;
    gopt.rows = 16;
    gopt.cols = 16;
    gopt.seed = 33;
    net_ = MakeGridCity(gopt);
    demand_ = std::make_unique<DemandModel>(net_, DemandModelOptions{});

    ScenarioOptions sopt;
    sopt.num_requests = 160;
    sopt.num_historical_trips = 3000;
    sopt.offline_fraction = 0.15;

    config_.kappa = 20;
    config_.kt = 5;
    ScenarioSystem built =
        CreateScenarioSystem(net_, *demand_, sopt, config_).value();
    system_ = std::move(built.system);
    scenario_ = std::move(built.scenario);

    // A bursty variant of the same workload: release times compressed
    // 1000x (~44 req/s), so a 50-200 ms batch window actually holds
    // multiple requests and the admission queue can back up. Deadlines
    // keep their original slack relative to the new release times.
    burst_ = scenario_.requests;
    for (RideRequest& r : burst_) {
      Seconds slack = r.deadline - r.release_time;
      r.release_time =
          burst_[0].release_time +
          (r.release_time - burst_[0].release_time) / 1000.0;
      r.deadline = r.release_time + slack;
    }
  }

  static std::string Serialize(const std::vector<RideRequest>& requests,
                               bool json) {
    std::ostringstream os;
    os << "# serialized request log\n";
    for (const RideRequest& r : requests) {
      os << (json ? FormatRequestJson(r) : FormatRequestCsv(r)) << "\n";
    }
    return os.str();
  }

  Metrics RunVector(SchemeKind scheme,
                    const std::vector<RideRequest>& requests,
                    double window_ms, int64_t max_queue = 0) {
    ScenarioSpec spec;
    spec.scheme = scheme;
    spec.requests = &requests;
    spec.num_taxis = 24;
    spec.fleet_seed = 7;
    spec.batch_window_ms = window_ms;
    spec.max_queue = max_queue;
    Result<Metrics> m = system_->RunScenario(spec);
    EXPECT_TRUE(m.ok()) << m.status();
    return std::move(m).value();
  }

  Metrics RunStream(SchemeKind scheme,
                    const std::vector<RideRequest>& requests, bool json,
                    double window_ms, int64_t max_queue = 0) {
    std::istringstream in(Serialize(requests, json));
    StreamRequestSource source(&in);
    ScenarioSpec spec;
    spec.scheme = scheme;
    spec.source = &source;
    spec.num_taxis = 24;
    spec.fleet_seed = 7;
    spec.batch_window_ms = window_ms;
    spec.max_queue = max_queue;
    Result<Metrics> m = system_->RunScenario(spec);
    EXPECT_TRUE(m.ok()) << m.status();
    return std::move(m).value();
  }

  RoadNetwork net_;
  std::unique_ptr<DemandModel> demand_;
  Scenario scenario_;
  std::vector<RideRequest> burst_;
  SystemConfig config_;
  std::unique_ptr<MTShareSystem> system_;
};

/// Every decision the simulation makes must match bit for bit; wall-clock
/// fields (response_ms, execution_seconds) are exempt.
void ExpectIdenticalDecisions(const Metrics& a, const Metrics& b,
                              const std::string& label) {
  ASSERT_EQ(a.TotalRequests(), b.TotalRequests()) << label;
  EXPECT_EQ(a.ServedRequests(), b.ServedRequests()) << label;
  EXPECT_EQ(a.ServedOnline(), b.ServedOnline()) << label;
  EXPECT_EQ(a.ServedOffline(), b.ServedOffline()) << label;
  EXPECT_DOUBLE_EQ(a.total_driver_income, b.total_driver_income) << label;
  EXPECT_EQ(a.serve.batches, b.serve.batches) << label;
  EXPECT_EQ(a.serve.admitted, b.serve.admitted) << label;
  EXPECT_EQ(a.serve.shed, b.serve.shed) << label;
  EXPECT_EQ(a.serve.queue_depth, b.serve.queue_depth) << label;
  for (int32_t i = 0; i < a.TotalRequests(); ++i) {
    const RequestRecord& ra = a.records()[i];
    const RequestRecord& rb = b.records()[i];
    EXPECT_EQ(ra.assigned, rb.assigned) << label << " req " << i;
    EXPECT_EQ(ra.completed, rb.completed) << label << " req " << i;
    EXPECT_EQ(ra.shed, rb.shed) << label << " req " << i;
    EXPECT_EQ(ra.taxi, rb.taxi) << label << " req " << i;
    EXPECT_EQ(ra.candidates, rb.candidates) << label << " req " << i;
    EXPECT_DOUBLE_EQ(ra.pickup_time, rb.pickup_time) << label << " req " << i;
    EXPECT_DOUBLE_EQ(ra.dropoff_time, rb.dropoff_time)
        << label << " req " << i;
    EXPECT_DOUBLE_EQ(ra.regular_fare, rb.regular_fare)
        << label << " req " << i;
    EXPECT_DOUBLE_EQ(ra.shared_fare, rb.shared_fare) << label << " req " << i;
  }
}

constexpr SchemeKind kAllSchemes[] = {
    SchemeKind::kNoSharing, SchemeKind::kTShare, SchemeKind::kPGreedyDp,
    SchemeKind::kMtShare, SchemeKind::kMtSharePro};

/// Core ingest-equivalence guarantee, CSV wire format: streaming the
/// serialized log replays the vector bit for bit under every scheme with
/// the classic per-request window.
TEST_F(RequestSourceTest, CsvStreamMatchesVectorForAllSchemes) {
  for (SchemeKind scheme : kAllSchemes) {
    Metrics vec = RunVector(scheme, scenario_.requests, /*window_ms=*/0);
    Metrics streamed =
        RunStream(scheme, scenario_.requests, /*json=*/false, 0);
    EXPECT_GT(vec.ServedRequests(), 0) << SchemeName(scheme);
    // Classic replays report the trivial serve counters.
    EXPECT_EQ(vec.serve.batches, 0) << SchemeName(scheme);
    EXPECT_EQ(vec.serve.queue_depth, 1) << SchemeName(scheme);
    EXPECT_GT(vec.serve.admitted, 0) << SchemeName(scheme);
    ExpectIdenticalDecisions(vec, streamed,
                             std::string(SchemeName(scheme)) + " csv");
  }
}

/// Same guarantee at every tested batch window on the bursty workload,
/// JSON wire format. Δt=0 is included: the batch path must collapse to
/// the classic loop exactly.
TEST_F(RequestSourceTest, JsonStreamMatchesVectorAtEveryBatchWindow) {
  for (double window_ms : {0.0, 50.0, 200.0}) {
    for (SchemeKind scheme : kAllSchemes) {
      std::string label = std::string(SchemeName(scheme)) + " window " +
                          std::to_string(window_ms);
      Metrics vec = RunVector(scheme, burst_, window_ms);
      Metrics streamed = RunStream(scheme, burst_, /*json=*/true, window_ms);
      ExpectIdenticalDecisions(vec, streamed, label);
      if (window_ms > 0) {
        // The burst actually exercised batching: fewer flushes than
        // requests, more than one request in flight at the peak.
        EXPECT_GT(vec.serve.batches, 0) << label;
        EXPECT_LT(vec.serve.batches, vec.serve.admitted) << label;
        EXPECT_GT(vec.serve.queue_depth, 1) << label;
      }
    }
  }
}

/// Δt=0 batch semantics equal the plain spec.requests replay — the batch
/// machinery must be invisible when disabled.
TEST_F(RequestSourceTest, ZeroWindowEqualsClassicReplay) {
  ScenarioSpec classic;
  classic.scheme = SchemeKind::kMtShare;
  classic.requests = &scenario_.requests;
  classic.num_taxis = 24;
  classic.fleet_seed = 7;
  Result<Metrics> base = system_->RunScenario(classic);
  ASSERT_TRUE(base.ok()) << base.status();
  Metrics windowed = RunVector(SchemeKind::kMtShare, scenario_.requests, 0);
  ExpectIdenticalDecisions(base.value(), windowed, "classic-vs-zero-window");
}

/// Admission control: with a tight queue cap on the bursty workload, the
/// engine sheds instead of queueing without bound, and every request still
/// gets exactly one decision.
TEST_F(RequestSourceTest, MaxQueueShedsAndCountsStayConsistent) {
  int64_t decisions = 0;
  ScenarioSpec spec;
  spec.scheme = SchemeKind::kMtShare;
  spec.requests = &burst_;
  spec.num_taxis = 24;
  spec.fleet_seed = 7;
  spec.batch_window_ms = 200.0;
  spec.max_queue = 3;
  spec.on_decision = [&](const RideRequest& r, const RequestRecord& rec) {
    EXPECT_EQ(r.id, rec.id);
    if (rec.shed) {
      EXPECT_FALSE(rec.assigned) << "shed request " << rec.id
                                 << " must never reach the dispatcher";
    }
    ++decisions;
  };
  Result<Metrics> run = system_->RunScenario(spec);
  ASSERT_TRUE(run.ok()) << run.status();
  const Metrics& m = run.value();
  EXPECT_GT(m.serve.shed, 0);
  EXPECT_LE(m.serve.queue_depth, 3);
  int64_t online = 0;
  int64_t shed_records = 0;
  int64_t assigned_offline = 0;
  for (const RequestRecord& rec : m.records()) {
    online += rec.offline ? 0 : 1;
    shed_records += rec.shed ? 1 : 0;
    assigned_offline += rec.offline && rec.assigned ? 1 : 0;
  }
  EXPECT_EQ(m.serve.admitted + m.serve.shed, online);
  EXPECT_EQ(m.serve.shed, shed_records);
  // One decision per admitted or shed request plus each served offline
  // encounter (unserved offline requests never produce a decision).
  EXPECT_EQ(decisions, m.serve.admitted + m.serve.shed + m.ServedOffline());
  // A shed request never reached the dispatcher: it has no response time
  // and no candidate set to count.
  EXPECT_EQ(m.response_hist().count(), m.serve.admitted + assigned_offline);
  EXPECT_EQ(m.candidates_hist().count(), m.serve.admitted);
}

TEST_F(RequestSourceTest, RequestLogFormatsRoundTripExactly) {
  for (const RideRequest& r : scenario_.requests) {
    for (bool json : {false, true}) {
      std::string line = json ? FormatRequestJson(r) : FormatRequestCsv(r);
      Result<RideRequest> back = ParseRequestLine(line);
      ASSERT_TRUE(back.ok()) << back.status() << " for: " << line;
      const RideRequest& p = back.value();
      EXPECT_EQ(p.id, r.id);
      // %.17g serialization: doubles survive the round trip bit for bit.
      EXPECT_EQ(p.release_time, r.release_time);
      EXPECT_EQ(p.deadline, r.deadline);
      EXPECT_EQ(p.direct_cost, r.direct_cost);
      EXPECT_EQ(p.origin, r.origin);
      EXPECT_EQ(p.destination, r.destination);
      EXPECT_EQ(p.passengers, r.passengers);
      EXPECT_EQ(p.offline, r.offline);
    }
  }
}

TEST_F(RequestSourceTest, PeekDoesNotConsume) {
  VectorRequestSource source(&scenario_.requests);
  RideRequest a, b, c;
  ASSERT_TRUE(source.Peek(&a));
  ASSERT_TRUE(source.Peek(&b));
  EXPECT_EQ(a.id, b.id);
  ASSERT_TRUE(source.Next(&c));
  EXPECT_EQ(c.id, a.id);
  ASSERT_TRUE(source.Next(&c));
  EXPECT_EQ(c.id, a.id + 1);
}

TEST_F(RequestSourceTest, MalformedStreamsFailRunScenarioWithLineError) {
  struct Case {
    const char* name;
    std::string log;
    const char* expect;
  };
  const std::string good = FormatRequestCsv(scenario_.requests[0]);
  std::vector<Case> cases;
  cases.push_back({"garbage", good + "\nnot,a,request\n", "line 2"});
  RideRequest sparse = scenario_.requests[1];
  sparse.id = 99;
  cases.push_back(
      {"sparse ids", good + "\n" + FormatRequestCsv(sparse) + "\n", "dense"});
  RideRequest early = scenario_.requests[1];
  early.id = 1;
  early.release_time = scenario_.requests[0].release_time - 100.0;
  cases.push_back({"unsorted", good + "\n" + FormatRequestCsv(early) + "\n",
                   "sorted"});
  RideRequest costless = scenario_.requests[0];
  costless.direct_cost = -1.0;
  costless.deadline = -1.0;
  cases.push_back(
      {"no cost", FormatRequestCsv(costless) + "\n", "direct_cost"});

  for (const Case& c : cases) {
    std::istringstream in(c.log);
    StreamRequestSource source(&in);
    ScenarioSpec spec;
    spec.scheme = SchemeKind::kMtShare;
    spec.source = &source;
    spec.num_taxis = 10;
    Result<Metrics> run = system_->RunScenario(spec);
    ASSERT_FALSE(run.ok()) << c.name;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument) << c.name;
    EXPECT_NE(run.status().message().find(c.expect), std::string::npos)
        << c.name << ": " << run.status();
  }
}

TEST_F(RequestSourceTest, NonFiniteFieldsFailWithLineError) {
  // A NaN release time would pass the sortedness check and abort the
  // engine's own; a NaN or infinite deadline or direct cost would be
  // accepted. In CSV and JSON alike, the stream stops at the line instead.
  // Each bad line is the second request's with one number replaced.
  const std::string good = FormatRequestCsv(scenario_.requests[0]);
  const std::string csv = FormatRequestCsv(scenario_.requests[1]);
  const std::string json = FormatRequestJson(scenario_.requests[1]);
  std::vector<std::string> bad_lines;
  for (const char* value : {"nan", "inf", "-nan", "-inf"}) {
    for (size_t field : {1, 4, 5}) {  // release, deadline, direct_cost
      std::vector<std::string> fields = Split(csv, ',');
      fields[field] = value;
      std::string line = fields[0];
      for (size_t i = 1; i < fields.size(); ++i) line += "," + fields[i];
      bad_lines.push_back(line);
    }
    for (const char* key : {"release_time", "deadline", "direct_cost"}) {
      const std::string tag = "\"" + std::string(key) + "\":";
      std::string line = json;
      const size_t at = line.find(tag) + tag.size();
      line.replace(at, line.find_first_of(",}", at) - at, value);
      bad_lines.push_back(line);
    }
  }
  for (const std::string& second : {csv, json}) {  // the unmodified lines
    std::istringstream in(good + "\n" + second + "\n");
    StreamRequestSource source(&in);
    RideRequest out;
    ASSERT_TRUE(source.Next(&out));
    ASSERT_TRUE(source.Next(&out)) << source.status();
  }
  for (const std::string& bad : bad_lines) {
    SCOPED_TRACE(bad);
    std::istringstream in(good + "\n" + bad + "\n");
    StreamRequestSource source(&in);
    RideRequest out;
    ASSERT_TRUE(source.Next(&out));
    EXPECT_FALSE(source.Next(&out));
    ASSERT_FALSE(source.status().ok());
    EXPECT_NE(source.status().message().find("line 2"), std::string::npos)
        << source.status();
  }
}

TEST_F(RequestSourceTest, OutOfRangeVerticesFailWhenBoundsKnown) {
  RideRequest bad = scenario_.requests[0];
  bad.origin = net_.num_vertices() + 5;
  std::istringstream in(FormatRequestCsv(bad) + "\n");
  StreamSourceOptions opts;
  opts.num_vertices = net_.num_vertices();
  StreamRequestSource source(&in, opts);
  RideRequest out;
  EXPECT_FALSE(source.Next(&out));
  EXPECT_FALSE(source.status().ok());
  EXPECT_NE(source.status().message().find("out of range"),
            std::string::npos);
}

/// The finalize hook fills fields raw service traffic omits: logs can
/// carry bare o/d/release lines (no id, cost, or deadline) and still
/// replay, with costs derived from the oracle.
TEST_F(RequestSourceTest, FinalizeHookDerivesCostAndDeadline) {
  std::ostringstream os;
  for (size_t i = 0; i < 40; ++i) {
    const RideRequest& r = scenario_.requests[i];
    char buf[128];
    std::snprintf(buf, sizeof(buf), "-1,%.17g,%lld,%lld,-1,-1,1,0\n",
                  r.release_time, static_cast<long long>(r.origin),
                  static_cast<long long>(r.destination));
    os << buf;
  }
  std::istringstream in(os.str());
  StreamSourceOptions opts;
  opts.num_vertices = net_.num_vertices();
  opts.finalize = [this](RideRequest* r) {
    r->direct_cost = system_->oracle().Cost(r->origin, r->destination);
    r->deadline = r->release_time + 1.3 * r->direct_cost;
  };
  StreamRequestSource source(&in, opts);
  ScenarioSpec spec;
  spec.scheme = SchemeKind::kMtShare;
  spec.source = &source;
  spec.num_taxis = 15;
  Result<Metrics> run = system_->RunScenario(spec);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run.value().TotalRequests(), 40);
  EXPECT_EQ(source.produced(), 40);
  for (const RequestRecord& rec : run.value().records()) {
    EXPECT_GT(rec.direct_cost, 0.0);
  }
}

/// The generator source streams a synthetic scenario lazily; for a fixed
/// (demand, seed) it is deterministic, sorted, and dense, and the engine
/// can consume it directly without a materialized vector.
TEST_F(RequestSourceTest, GeneratorSourceIsDeterministicSortedAndRunnable) {
  ScenarioOptions sopt;
  sopt.num_requests = 120;
  sopt.offline_fraction = 0.1;
  sopt.seed = 91;

  auto drain = [&]() {
    GeneratorRequestSource source(*demand_, system_->oracle(), sopt);
    std::vector<RideRequest> out;
    RideRequest r;
    while (source.Next(&r)) out.push_back(r);
    return out;
  };
  std::vector<RideRequest> a = drain();
  std::vector<RideRequest> b = drain();
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<RequestId>(i));
    EXPECT_GT(a[i].direct_cost, 0.0);
    EXPECT_GT(a[i].deadline, a[i].release_time);
    if (i > 0) {
      EXPECT_GE(a[i].release_time, a[i - 1].release_time);
    }
    EXPECT_EQ(a[i].origin, b[i].origin);
    EXPECT_EQ(a[i].destination, b[i].destination);
    EXPECT_EQ(a[i].release_time, b[i].release_time);
    EXPECT_EQ(a[i].passengers, b[i].passengers);
    EXPECT_EQ(a[i].offline, b[i].offline);
  }

  GeneratorRequestSource source(*demand_, system_->oracle(), sopt);
  ScenarioSpec spec;
  spec.scheme = SchemeKind::kMtShare;
  spec.source = &source;
  spec.num_taxis = 20;
  Result<Metrics> run = system_->RunScenario(spec);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run.value().TotalRequests(), static_cast<int32_t>(a.size()));
  EXPECT_GT(run.value().ServedRequests(), 0);

  // Streaming from the generator equals running its materialized drain —
  // the lazy path changes memory, not decisions.
  ScenarioSpec vec_spec;
  vec_spec.scheme = SchemeKind::kMtShare;
  vec_spec.requests = &a;
  vec_spec.num_taxis = 20;
  Result<Metrics> vec_run = system_->RunScenario(vec_spec);
  ASSERT_TRUE(vec_run.ok()) << vec_run.status();
  ExpectIdenticalDecisions(vec_run.value(), run.value(), "generator");
}

/// The determinism test above compares two drains with each other; this one
/// pins what a drain contains. Every field of every request, in stream
/// order, goes into one digest: a change to the re-sample loop, the deadline
/// rule or the order of the party-size and offline draws moves it.
TEST_F(RequestSourceTest, GeneratorSourcePinsEveryField) {
  ScenarioOptions sopt;
  sopt.num_requests = 500;
  sopt.offline_fraction = 0.3;
  sopt.seed = 20211;

  GeneratorRequestSource source(*demand_, system_->oracle(), sopt);
  Fnv1a fnv;
  int64_t count = 0;
  RideRequest r;
  while (source.Next(&r)) {
    fnv.Add(static_cast<uint64_t>(r.id));
    fnv.Add(r.release_time);
    fnv.Add(static_cast<uint64_t>(r.origin));
    fnv.Add(static_cast<uint64_t>(r.destination));
    fnv.Add(r.direct_cost);
    fnv.Add(r.deadline);
    fnv.Add(static_cast<uint64_t>(r.passengers));
    fnv.Add(static_cast<uint64_t>(r.offline));
    ++count;
  }
  EXPECT_EQ(count, 500);
  EXPECT_EQ(fnv.value(), 0xa8d6cfeb742d6620ull) << std::hex << fnv.value();
}

}  // namespace
}  // namespace mtshare
