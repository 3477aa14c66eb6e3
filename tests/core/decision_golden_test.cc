// Golden decision digests: every scheme's per-request decisions on a fixed
// CI city, pinned as constants. The equivalence suites compare two live
// code paths against each other; this test compares the surviving path
// against decisions recorded before any alternative was deleted, so a
// simplification that drifts a single pickup time or fare fails here.
//
// When a change moves decisions on purpose, the failure message prints the
// whole table in source form; paste it over kGolden and say why in the
// commit message.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/mtshare_system.h"
#include "graph/graph_generators.h"

namespace mtshare {
namespace {

struct GoldenRun {
  SchemeKind scheme;
  uint64_t seed;
  double batch_window_ms;
  uint64_t digest;
};

// clang-format off
constexpr GoldenRun kGolden[] = {
    {SchemeKind::kNoSharing, 11, 0, 0x8dc3d1a6291d1b19ull},
    {SchemeKind::kNoSharing, 11, 200, 0x37aaff4dc000c744ull},
    {SchemeKind::kTShare, 11, 0, 0x6db380f90c49ff37ull},
    {SchemeKind::kTShare, 11, 200, 0xef2e93562ea715e2ull},
    {SchemeKind::kPGreedyDp, 11, 0, 0xc667c51035ea3935ull},
    {SchemeKind::kPGreedyDp, 11, 200, 0xeadac31b60577427ull},
    {SchemeKind::kMtShare, 11, 0, 0xa08df7f6f6f9c8c9ull},
    {SchemeKind::kMtShare, 11, 200, 0xde033e61eb7dc049ull},
    {SchemeKind::kMtSharePro, 11, 0, 0x4594f9810ddac5a9ull},
    {SchemeKind::kMtSharePro, 11, 200, 0xc1874e62a4e70344ull},
    {SchemeKind::kNoSharing, 29, 0, 0xdaf66ab451d624dbull},
    {SchemeKind::kNoSharing, 29, 200, 0x75c8c2de8fdef9ddull},
    {SchemeKind::kTShare, 29, 0, 0x976dcbce833d12b8ull},
    {SchemeKind::kTShare, 29, 200, 0x085418cfd640393dull},
    {SchemeKind::kPGreedyDp, 29, 0, 0xb2c08f9ba826dcdbull},
    {SchemeKind::kPGreedyDp, 29, 200, 0x83a72d725f4206fbull},
    {SchemeKind::kMtShare, 29, 0, 0xe908dee0d637e23cull},
    {SchemeKind::kMtShare, 29, 200, 0x5ae7772383b6f9b6ull},
    {SchemeKind::kMtSharePro, 29, 0, 0xd352c658383e76adull},
    {SchemeKind::kMtSharePro, 29, 200, 0xc83053791a31476dull},
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

/// 64-bit FNV-1a over little-endian words, so the digest does not depend
/// on the host's byte order or struct padding.
class Fnv1a {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void Add(double value) { Add(std::bit_cast<uint64_t>(value)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

uint64_t DecisionDigest(const Metrics& m) {
  Fnv1a fnv;
  for (const RequestRecord& r : m.records()) {
    fnv.Add(static_cast<uint64_t>(r.id));
    fnv.Add(static_cast<uint64_t>(r.assigned));
    fnv.Add(static_cast<uint64_t>(static_cast<int64_t>(r.taxi)));
    fnv.Add(r.pickup_time);
    fnv.Add(r.dropoff_time);
    fnv.Add(r.regular_fare);
    fnv.Add(r.shared_fare);
  }
  return fnv.value();
}

/// The 16x16 CI city of candidate_search_equivalence_test, 20% street
/// hails; one system per seed serves every scheme and window (each run
/// starts from a fresh fleet and dispatcher).
std::vector<GoldenRun> RunAll() {
  std::vector<GoldenRun> runs;
  for (uint64_t seed : {11u, 29u}) {
    GridCityOptions gopt;
    gopt.rows = 16;
    gopt.cols = 16;
    gopt.seed = seed;
    RoadNetwork net = MakeGridCity(gopt);
    DemandModelOptions dopt;
    dopt.seed = seed + 1;
    DemandModel demand(net, dopt);
    DistanceOracle oracle(net);
    ScenarioOptions sopt;
    sopt.num_requests = 160;
    sopt.num_historical_trips = 2500;
    sopt.offline_fraction = 0.2;
    sopt.seed = seed + 2;
    Scenario scenario = MakeScenario(net, demand, oracle, sopt);

    SystemConfig config;
    config.kappa = 16;
    config.kt = 5;
    MTShareSystem system(net, scenario.HistoricalOdPairs(), config);
    for (SchemeKind scheme : kSchemes) {
      for (double window_ms : {0.0, 200.0}) {
        ScenarioSpec spec;
        spec.scheme = scheme;
        spec.requests = &scenario.requests;
        spec.num_taxis = 24;
        spec.fleet_seed = seed + 3;
        spec.batch_window_ms = window_ms;
        Result<Metrics> run = system.RunScenario(spec);
        EXPECT_TRUE(run.ok()) << run.status();
        if (!run.ok()) continue;
        EXPECT_GT(run.value().ServedRequests(), 0) << SchemeName(scheme);
        runs.push_back({scheme, seed, window_ms, DecisionDigest(run.value())});
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
                  "    {SchemeKind::%s, %" PRIu64 ", %g, 0x%016" PRIx64
                  "ull},\n",
                  SchemeEnumName(r.scheme), r.seed, r.batch_window_ms,
                  r.digest);
    table += line;
  }
  return table;
}

TEST(DecisionGoldenTest, EverySchemeMatchesCommittedDigests) {
  const std::vector<GoldenRun> runs = RunAll();
  ASSERT_EQ(runs.size(), std::size(kGolden))
      << "current digests:\n" << FormatTable(runs);
  bool all_match = true;
  for (size_t i = 0; i < runs.size(); ++i) {
    const GoldenRun& got = runs[i];
    const GoldenRun& want = kGolden[i];
    ASSERT_EQ(got.scheme, want.scheme);
    ASSERT_EQ(got.seed, want.seed);
    ASSERT_EQ(got.batch_window_ms, want.batch_window_ms);
    EXPECT_EQ(got.digest, want.digest)
        << SchemeName(got.scheme) << " seed " << got.seed << " window "
        << got.batch_window_ms << " ms";
    all_match = all_match && got.digest == want.digest;
  }
  EXPECT_TRUE(all_match) << "current digests:\n" << FormatTable(runs);
}

}  // namespace
}  // namespace mtshare
