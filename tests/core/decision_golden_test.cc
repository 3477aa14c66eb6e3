// Golden decision digests: every scheme's per-request decisions on a fixed
// CI city, pinned as constants. The equivalence suites compare two live
// code paths against each other; this test compares the surviving path
// against decisions recorded before any alternative was deleted, so a
// simplification that drifts a single pickup time or fare fails here.
// The serve_offline column pins runs that ignore street hails: their
// releases are invisible to every scheme yet must still advance the fleet
// (DESIGN.md §9). Every row runs once per oracle backend: the exact table
// answers pickup reachability with table reads and the contraction
// hierarchy with last-stop bucket sweeps (DESIGN.md §14), and both must
// land on the same decisions.
//
// When a change moves decisions on purpose, the failure message prints the
// whole table in source form; paste it over kGolden and say why in the
// commit message.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/mtshare_system.h"
#include "graph/graph_generators.h"
#include "testing/decision_digest.h"

namespace mtshare {
namespace {

struct GoldenRun {
  SchemeKind scheme;
  uint64_t seed;
  double batch_window_ms;
  bool serve_offline;
  uint64_t digest;
};

// clang-format off
constexpr GoldenRun kGolden[] = {
    {SchemeKind::kNoSharing, 11, 0, true, 0x8dc3d1a6291d1b19ull},
    {SchemeKind::kNoSharing, 11, 0, false, 0x8dc3d1a6291d1b19ull},
    {SchemeKind::kNoSharing, 11, 200, true, 0x37aaff4dc000c744ull},
    {SchemeKind::kNoSharing, 11, 200, false, 0x37aaff4dc000c744ull},
    {SchemeKind::kTShare, 11, 0, true, 0x6db380f90c49ff37ull},
    {SchemeKind::kTShare, 11, 0, false, 0xb90b7dc752013087ull},
    {SchemeKind::kTShare, 11, 200, true, 0xef2e93562ea715e2ull},
    {SchemeKind::kTShare, 11, 200, false, 0x2dbf12063a5e7807ull},
    {SchemeKind::kPGreedyDp, 11, 0, true, 0xc667c51035ea3935ull},
    {SchemeKind::kPGreedyDp, 11, 0, false, 0x702f78159d64e004ull},
    {SchemeKind::kPGreedyDp, 11, 200, true, 0xeadac31b60577427ull},
    {SchemeKind::kPGreedyDp, 11, 200, false, 0x0a2d4a2171913d46ull},
    {SchemeKind::kMtShare, 11, 0, true, 0xa08df7f6f6f9c8c9ull},
    {SchemeKind::kMtShare, 11, 0, false, 0x7f623799fa6b6dd7ull},
    {SchemeKind::kMtShare, 11, 200, true, 0xde033e61eb7dc049ull},
    {SchemeKind::kMtShare, 11, 200, false, 0x819741e68abef03dull},
    {SchemeKind::kMtSharePro, 11, 0, true, 0x4594f9810ddac5a9ull},
    {SchemeKind::kMtSharePro, 11, 0, false, 0xc65be5b558396db2ull},
    {SchemeKind::kMtSharePro, 11, 200, true, 0xc1874e62a4e70344ull},
    {SchemeKind::kMtSharePro, 11, 200, false, 0xd5c0940644e97aa5ull},
    {SchemeKind::kNoSharing, 29, 0, true, 0xdaf66ab451d624dbull},
    {SchemeKind::kNoSharing, 29, 0, false, 0xdaf66ab451d624dbull},
    {SchemeKind::kNoSharing, 29, 200, true, 0x75c8c2de8fdef9ddull},
    {SchemeKind::kNoSharing, 29, 200, false, 0x75c8c2de8fdef9ddull},
    {SchemeKind::kTShare, 29, 0, true, 0x976dcbce833d12b8ull},
    {SchemeKind::kTShare, 29, 0, false, 0x95579a8e4db90b07ull},
    {SchemeKind::kTShare, 29, 200, true, 0x085418cfd640393dull},
    {SchemeKind::kTShare, 29, 200, false, 0xe9aad48c5c12381dull},
    {SchemeKind::kPGreedyDp, 29, 0, true, 0xb2c08f9ba826dcdbull},
    {SchemeKind::kPGreedyDp, 29, 0, false, 0x166ec6ed5291f515ull},
    {SchemeKind::kPGreedyDp, 29, 200, true, 0x83a72d725f4206fbull},
    {SchemeKind::kPGreedyDp, 29, 200, false, 0xef75f13d9cc0c0f6ull},
    {SchemeKind::kMtShare, 29, 0, true, 0xe908dee0d637e23cull},
    {SchemeKind::kMtShare, 29, 0, false, 0xf33c92ee0b8c7e5eull},
    {SchemeKind::kMtShare, 29, 200, true, 0x5ae7772383b6f9b6ull},
    {SchemeKind::kMtShare, 29, 200, false, 0xc30c38dbf23119caull},
    {SchemeKind::kMtSharePro, 29, 0, true, 0xd352c658383e76adull},
    {SchemeKind::kMtSharePro, 29, 0, false, 0x9d88de8f19c3526eull},
    {SchemeKind::kMtSharePro, 29, 200, true, 0xc83053791a31476dull},
    {SchemeKind::kMtSharePro, 29, 200, false, 0x86626deb914f1d4full},
    {SchemeKind::kNoSharing, 47, 0, true, 0xc62cebd037c1b4bbull},
    {SchemeKind::kNoSharing, 47, 0, false, 0xc62cebd037c1b4bbull},
    {SchemeKind::kNoSharing, 47, 200, true, 0x29b76cef32f04490ull},
    {SchemeKind::kNoSharing, 47, 200, false, 0x29b76cef32f04490ull},
    {SchemeKind::kTShare, 47, 0, true, 0xb391f7b78d14d2e1ull},
    {SchemeKind::kTShare, 47, 0, false, 0x4b00f18e960d16a2ull},
    {SchemeKind::kTShare, 47, 200, true, 0x8bd0d152fb8bd213ull},
    {SchemeKind::kTShare, 47, 200, false, 0x3dd76ac061952f2full},
    {SchemeKind::kPGreedyDp, 47, 0, true, 0x14f4ffad24bc469full},
    {SchemeKind::kPGreedyDp, 47, 0, false, 0x1d2956f0412bcff4ull},
    {SchemeKind::kPGreedyDp, 47, 200, true, 0x83b5a80fa0857a4dull},
    {SchemeKind::kPGreedyDp, 47, 200, false, 0xf5e016f7b5670d14ull},
    {SchemeKind::kMtShare, 47, 0, true, 0x5eb0b164f7d7444dull},
    {SchemeKind::kMtShare, 47, 0, false, 0xc9a4d2c976f2d17aull},
    {SchemeKind::kMtShare, 47, 200, true, 0xcc97c1cfdf30a9bcull},
    {SchemeKind::kMtShare, 47, 200, false, 0x9e37e9f0a89cba22ull},
    {SchemeKind::kMtSharePro, 47, 0, true, 0x36c5271e0683c53bull},
    {SchemeKind::kMtSharePro, 47, 0, false, 0x13777926476b0f3bull},
    {SchemeKind::kMtSharePro, 47, 200, true, 0xa8ee99ee20cf25b8ull},
    {SchemeKind::kMtSharePro, 47, 200, false, 0x2c152f166b9239baull},
};
// clang-format on

constexpr SchemeKind kSchemes[] = {
    SchemeKind::kNoSharing, SchemeKind::kTShare, SchemeKind::kPGreedyDp,
    SchemeKind::kMtShare, SchemeKind::kMtSharePro};

const char* SchemeEnumName(SchemeKind scheme) {
  switch (scheme) {
    case SchemeKind::kNoSharing:
      return "kNoSharing";
    case SchemeKind::kTShare:
      return "kTShare";
    case SchemeKind::kPGreedyDp:
      return "kPGreedyDp";
    case SchemeKind::kMtShare:
      return "kMtShare";
    case SchemeKind::kMtSharePro:
      return "kMtSharePro";
  }
  return "?";
}

/// The 16x16 CI city of candidate_search_equivalence_test, 20% street
/// hails; one system per seed serves every scheme, window and
/// serve_offline setting (each run starts from a fresh fleet and
/// dispatcher).
std::vector<GoldenRun> RunGoldenGrid(OracleBackend backend) {
  std::vector<GoldenRun> runs;
  for (uint64_t seed : {11u, 29u, 47u}) {
    GridCityOptions gopt;
    gopt.rows = 16;
    gopt.cols = 16;
    gopt.seed = seed;
    RoadNetwork net = MakeGridCity(gopt);
    DemandModelOptions dopt;
    dopt.seed = seed + 1;
    DemandModel demand(net, dopt);
    ScenarioOptions sopt;
    sopt.num_requests = 160;
    sopt.num_historical_trips = 2500;
    sopt.offline_fraction = 0.2;
    sopt.seed = seed + 2;

    SystemConfig config;
    config.kappa = 16;
    config.kt = 5;
    config.oracle.backend = backend;
    auto [system, scenario] =
        CreateScenarioSystem(net, demand, sopt, config).value();
    for (SchemeKind scheme : kSchemes) {
      for (double window_ms : {0.0, 200.0}) {
        for (bool serve_offline : {true, false}) {
          ScenarioSpec spec;
          spec.scheme = scheme;
          spec.requests = &scenario.requests;
          spec.num_taxis = 24;
          spec.fleet_seed = seed + 3;
          spec.batch_window_ms = window_ms;
          spec.serve_offline = serve_offline;
          Result<Metrics> run = system->RunScenario(spec);
          EXPECT_TRUE(run.ok()) << run.status();
          if (!run.ok()) continue;
          EXPECT_GT(run.value().ServedRequests(), 0) << SchemeName(scheme);
          runs.push_back({scheme, seed, window_ms, serve_offline,
                          DecisionDigest(run.value())});
        }
      }
    }
  }
  return runs;
}

std::string FormatTable(const std::vector<GoldenRun>& runs) {
  std::string table;
  char line[128];
  for (const GoldenRun& r : runs) {
    std::snprintf(line, sizeof(line),
                  "    {SchemeKind::%s, %" PRIu64 ", %g, %s, 0x%016" PRIx64
                  "ull},\n",
                  SchemeEnumName(r.scheme), r.seed, r.batch_window_ms,
                  r.serve_offline ? "true" : "false", r.digest);
    table += line;
  }
  return table;
}

TEST(DecisionGoldenTest, EverySchemeMatchesCommittedDigests) {
  for (OracleBackend backend : {OracleBackend::kExact, OracleBackend::kCh}) {
    const char* oracle = OracleBackendName(backend);
    const std::vector<GoldenRun> runs = RunGoldenGrid(backend);
    ASSERT_EQ(runs.size(), std::size(kGolden))
        << oracle << " oracle; current digests:\n" << FormatTable(runs);
    bool all_match = true;
    for (size_t i = 0; i < runs.size(); ++i) {
      const GoldenRun& got = runs[i];
      const GoldenRun& want = kGolden[i];
      ASSERT_EQ(got.scheme, want.scheme);
      ASSERT_EQ(got.seed, want.seed);
      ASSERT_EQ(got.batch_window_ms, want.batch_window_ms);
      ASSERT_EQ(got.serve_offline, want.serve_offline);
      EXPECT_EQ(got.digest, want.digest)
          << oracle << " oracle: " << SchemeName(got.scheme) << " seed "
          << got.seed << " window " << got.batch_window_ms
          << " ms serve_offline " << got.serve_offline;
      all_match = all_match && got.digest == want.digest;
    }
    EXPECT_TRUE(all_match)
        << oracle << " oracle; current digests:\n" << FormatTable(runs);
  }
}

}  // namespace
}  // namespace mtshare
