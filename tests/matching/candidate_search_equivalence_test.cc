// Pickup reachability follows the oracle backend (DESIGN.md §14): the
// exact table answers it with table reads, a CH-backed oracle with
// last-stop bucket sweeps. DecisionGoldenTest pins both backends'
// decisions. These tests check that each backend reports the source it
// used, and the bucket-store consistency invariant under the engine's
// span-batched advancement.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/mtshare_system.h"
#include "graph/graph_generators.h"
#include "matching/taxi_state.h"
#include "sim/engine.h"
#include "sim/request_source.h"

namespace mtshare {
namespace {

struct RunOptions {
  SchemeKind scheme = SchemeKind::kMtShare;
  uint64_t seed = 11;
  OracleBackend oracle_backend = OracleBackend::kAuto;
};

Metrics RunOnce(const RunOptions& opt) {
  GridCityOptions gopt;
  gopt.rows = 16;
  gopt.cols = 16;
  gopt.seed = opt.seed;
  RoadNetwork net = MakeGridCity(gopt);

  DemandModelOptions dopt;
  dopt.seed = opt.seed + 1;
  DemandModel demand(net, dopt);
  ScenarioOptions sopt;
  sopt.num_requests = 160;
  sopt.num_historical_trips = 2500;
  sopt.offline_fraction = 0.2;
  sopt.seed = opt.seed + 2;

  SystemConfig config;
  config.kappa = 16;
  config.kt = 5;
  config.oracle.backend = opt.oracle_backend;
  // Fresh system per run so dispatcher indexes and bucket stores start
  // cold and the comparison sees identical initial state.
  auto [system, scenario] =
      CreateScenarioSystem(net, demand, sopt, config).value();

  ScenarioSpec spec;
  spec.scheme = opt.scheme;
  spec.requests = &scenario.requests;
  spec.num_taxis = 24;
  spec.fleet_seed = opt.seed + 3;
  Result<Metrics> run = system->RunScenario(spec);
  EXPECT_TRUE(run.ok()) << run.status();
  return std::move(run).value();
}

TEST(CandidateSearchEquivalenceTest, ReachabilitySourceFollowsBackend) {
  // Decisions are pinned per backend by DecisionGoldenTest; this checks
  // which source each backend used and that both stay fallback-free.
  for (SchemeKind scheme :
       {SchemeKind::kNoSharing, SchemeKind::kTShare, SchemeKind::kPGreedyDp,
        SchemeKind::kMtShare, SchemeKind::kMtSharePro}) {
    SCOPED_TRACE(SchemeName(scheme));
    RunOptions opt;
    opt.scheme = scheme;
    opt.oracle_backend = OracleBackend::kExact;
    Metrics exact = RunOnce(opt);
    opt.oracle_backend = OracleBackend::kCh;
    Metrics ch = RunOnce(opt);
    EXPECT_FALSE(exact.routing.bucket_search);
    EXPECT_EQ(exact.routing.bucket_candidates, 0);
    // pGreedyDP has no reachability probe to answer (its DP rejects
    // unreachable pickups), so it never sweeps: its bucket store holds the
    // labels its insertions are priced from and nothing else, and its
    // report reads "none".
    if (scheme == SchemeKind::kPGreedyDp) {
      EXPECT_EQ(exact.routing.reach_probes, 0);
      EXPECT_EQ(ch.routing.reach_probes, 0);
      EXPECT_FALSE(ch.routing.bucket_search);
      EXPECT_EQ(ch.routing.bucket_candidates, 0);
    } else {
      EXPECT_GT(exact.routing.reach_probes, 0);
      EXPECT_GT(ch.routing.reach_probes, 0);
      EXPECT_TRUE(ch.routing.bucket_search);
      EXPECT_GT(ch.routing.bucket_candidates, 0);
    }
    for (const Metrics* m : {&exact, &ch}) {
      // Every scheme with a schedule to screen runs the detour-ellipse
      // screen on either backend (No-Sharing assigns idle taxis only).
      if (scheme != SchemeKind::kNoSharing) {
        EXPECT_GT(m->routing.slots_screened, 0);
      }
      EXPECT_EQ(m->routing.fallback_queries, 0);
    }
  }
}

/// Sorted (vertex, cost) entries of a label, for order-free comparison.
std::vector<std::pair<VertexId, Seconds>> Entries(const UpwardLabel& label) {
  std::vector<std::pair<VertexId, Seconds>> out;
  for (size_t i = 0; i < label.size(); ++i) {
    out.emplace_back(label.vertices[i], label.costs[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(CandidateSearchEquivalenceTest, BucketStoreStaysConsistentMidRun) {
  // Invariant the engine notifications must uphold at every decision
  // point, for every scheme: a taxi's deposits either match its CURRENT
  // location or the taxi is marked dirty (so the next flush rebuilds
  // it). Matching means deposits anchored at its location that equal a
  // fresh stall-pruned location label. The grid baselines override the
  // index hooks without chaining to the base, so dirty-marking must not
  // depend on the hooks; a moved taxi left clean with a stale anchor is
  // caught here at every decision of a full run. Stop labels are synced
  // only when their taxi is an insertion candidate, so a taxi's labels may
  // lag its schedule, but every held label must equal a fresh label of
  // its own vertex, a taxi whose schedule is empty holds none, and
  // No-Sharing, which never inserts, holds none. The store is built with
  // the dispatcher, so it is read from the first decision on.
  GridCityOptions gopt;
  gopt.rows = 16;
  gopt.cols = 16;
  gopt.seed = 83;
  RoadNetwork net = MakeGridCity(gopt);
  DemandModelOptions dopt;
  dopt.seed = 84;
  DemandModel demand(net, dopt);
  ScenarioOptions sopt;
  sopt.num_requests = 160;
  sopt.num_historical_trips = 2500;
  sopt.offline_fraction = 0.2;
  sopt.seed = 85;
  SystemConfig config;
  config.kappa = 16;
  config.kt = 5;
  config.oracle.backend = OracleBackend::kCh;
  auto [system, scenario] =
      CreateScenarioSystem(net, demand, sopt, config).value();
  const ContractionHierarchy& ch = *system->oracle().ch();

  for (SchemeKind scheme :
       {SchemeKind::kNoSharing, SchemeKind::kTShare, SchemeKind::kPGreedyDp,
        SchemeKind::kMtShare, SchemeKind::kMtSharePro}) {
    SCOPED_TRACE(SchemeName(scheme));
    std::vector<TaxiState> fleet =
        MakeFleet(net, 24, config.taxi_capacity, 86,
                  scenario.requests.front().release_time);
    std::unique_ptr<Dispatcher> dispatcher =
        system->MakeDispatcher(scheme, &fleet);
    ASSERT_NE(dispatcher->buckets(), nullptr);

    EngineOptions eopts;
    int64_t checks = 0;
    int64_t stops_checked = 0;
    int64_t idle_checked = 0;
    eopts.on_decision = [&](const RideRequest&, const RequestRecord&) {
      const LastStopBuckets* buckets = dispatcher->buckets();
      // A fresh store computes every taxi's entries from scratch.
      LastStopBuckets fresh(ch, static_cast<int32_t>(fleet.size()));
      for (const TaxiState& t : fleet) {
        ++checks;
        const std::span<const StopLabels> held = buckets->stops(t.id);
        if (t.schedule.empty()) {
          ++idle_checked;
          EXPECT_TRUE(held.empty())
              << "taxi " << t.id << " has no stop but holds " << held.size()
              << " stop labels";
        }
        for (size_t k = 0; k < held.size(); ++k) {
          ++stops_checked;
          fresh.SyncStops(t.id, std::span(&held[k].vertex, 1));
          const StopLabels& want = fresh.stops(t.id)[0];
          EXPECT_EQ(Entries(held[k].out), Entries(want.out))
              << "taxi " << t.id << " stop " << k;
          EXPECT_EQ(Entries(held[k].in), Entries(want.in))
              << "taxi " << t.id << " stop " << k;
        }
        if (buckets->dirty(t.id)) continue;
        EXPECT_EQ(buckets->anchor(t.id), t.location)
            << "taxi " << t.id << ": clean bucket entries anchored at "
            << buckets->anchor(t.id) << " but taxi is at " << t.location;
        fresh.Flush(t.id, t.location);
        EXPECT_EQ(Entries(buckets->AnchorLabel(t.id)),
                  Entries(fresh.AnchorLabel(t.id)))
            << "taxi " << t.id << ": stale deposits";
      }
    };
    SimulationEngine engine(net, dispatcher.get(), &fleet, eopts);
    VectorRequestSource source(&scenario.requests);
    Metrics m = engine.Run(source);
    EXPECT_GT(m.ServedRequests(), 0);
    EXPECT_GT(checks, 0);
    EXPECT_GT(idle_checked, 0);
    // Schemes that share hold labels for scheduled stops mid-run;
    // No-Sharing never inserts, so it labels no stop.
    if (scheme == SchemeKind::kNoSharing) {
      EXPECT_EQ(stops_checked, 0);
      EXPECT_EQ(m.routing.ch_bucket_entries, 0);
    } else {
      EXPECT_GT(stops_checked, 0);
    }
  }
}

}  // namespace
}  // namespace mtshare
