// Ablations of the design choices DESIGN.md calls out (not a paper figure;
// complements Figs. 14/16/20 with the knobs this implementation adds):
//   (a) cluster matching: single best cluster C_a (the literal eq. (3)) vs
//       the union of all direction-compatible clusters;
//   (b) probabilistic-leg stretch budget: how far offline-seeking detours
//       may exceed the shortest leg;
//   (c) offline-encounter radius: how far a driver can spot a hailer;
//   (d) static plans under congestion: how many statically planned direct
//       routes would miss their rho-deadline when re-timed under rush-hour
//       traffic (the paper's "extend to real-time traffic" remark, audited).
#include "bench_common.h"
#include "sim/engine.h"
#include "traffic/congestion.h"

using namespace mtshare;
using namespace mtshare::bench;

namespace {

Metrics RunWithEngine(BenchEnv& env, SchemeKind scheme, int32_t taxis,
                      double encounter_radius) {
  MTShareSystem& sys = env.system();
  auto fleet = MakeFleet(env.network(), taxis, sys.config().taxi_capacity, 1,
                         env.scenario().requests.front().release_time);
  auto dispatcher = sys.MakeDispatcher(scheme, &fleet);
  EngineOptions eopts;
  eopts.encounter_radius_m = encounter_radius;
  SimulationEngine engine(env.network(), dispatcher.get(), &fleet, eopts);
  return engine.Run(env.scenario().requests);
}

}  // namespace

int main() {
  BenchScale scale = GetScale();

  PrintBanner("Ablation (a) — mobility-cluster matching rule (peak)",
              "single best cluster C_a (literal eq. 3) vs all compatible "
              "clusters");
  {
    PrintHeader({"rule", "served", "candidates", "resp ms"});
    for (bool match_all : {false, true}) {
      BenchEnv env(Window::kPeak);
      MatchingConfig mc = env.config().matching;
      mc.match_all_compatible_clusters = match_all;
      env.system().set_matching(mc);
      Metrics m = env.Run(SchemeKind::kMtShare, scale.default_fleet);
      PrintRow({match_all ? "all-compatible" : "single-best",
                std::to_string(m.ServedRequests()),
                Fmt(m.MeanCandidates(), 1), Fmt(m.MeanResponseMs(), 3)});
    }
  }

  PrintBanner("Ablation (b) — probabilistic leg stretch budget (nonpeak)",
              "larger budgets chase more encounter mass but eat deadline "
              "slack");
  {
    BenchEnv env(Window::kNonPeak);
    PrintHeader({"stretch", "served", "online", "offline", "detour min"});
    for (double stretch : {1.0, 1.25, 1.5, 2.0, 3.0}) {
      MatchingConfig mc = env.config().matching;
      mc.prob_max_stretch = stretch;
      env.system().set_matching(mc);
      Metrics m = env.Run(SchemeKind::kMtSharePro, scale.default_fleet);
      PrintRow({Fmt(stretch, 2), std::to_string(m.ServedRequests()),
                std::to_string(m.ServedOnline()),
                std::to_string(m.ServedOffline()),
                Fmt(m.MeanDetourMinutes(), 2)});
    }
  }

  PrintBanner("Ablation (c) — offline-encounter radius (nonpeak, pro)",
              "0 m = must drive over the exact corner the hailer stands on");
  {
    BenchEnv env(Window::kNonPeak);
    PrintHeader({"radius m", "served", "offline"});
    for (double radius : {1.0, 100.0, 200.0, 400.0}) {
      Metrics m = RunWithEngine(env, SchemeKind::kMtSharePro,
                                scale.default_fleet, radius);
      PrintRow({Fmt(radius, 0), std::to_string(m.ServedRequests()),
                std::to_string(m.ServedOffline())});
    }
  }

  PrintBanner("Ablation (d) — static plans under rush-hour congestion",
              "fraction of direct trips whose free-flow route, re-timed "
              "under congestion, would miss the rho=1.3 deadline");
  {
    RoadNetwork net = MakeBenchCity();
    DemandModelOptions dopt;
    DemandModel demand(net, dopt);
    Rng rng(99);
    auto trips = demand.GenerateTrips(8 * 3600.0, 9 * 3600.0, 500, rng);
    DijkstraSearch static_search(net);
    PrintHeader({"amplitude", "missed %", "aware missed %",
                 "mean slowdown %"});
    for (double amplitude : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      CongestionProfile profile = CongestionProfile::Workday(amplitude);
      TimeDependentDijkstra td(net, profile);
      int missed_static = 0;
      int missed_aware = 0;
      double slowdown = 0.0;
      int n = 0;
      for (const Trip& t : trips) {
        Path p = static_search.FindPath(t.origin, t.destination);
        if (!p.valid || p.cost <= 0) continue;
        Seconds deadline = t.release_time + 1.3 * p.cost;
        Seconds retimed = td.RetimePath(p.vertices, t.release_time);
        Seconds aware = td.EarliestArrival(t.origin, t.destination,
                                           t.release_time);
        missed_static += retimed > deadline ? 1 : 0;
        missed_aware += aware > deadline ? 1 : 0;
        slowdown += (retimed - t.release_time) / p.cost - 1.0;
        ++n;
      }
      PrintRow({Fmt(amplitude, 2), Fmt(100.0 * missed_static / n, 1),
                Fmt(100.0 * missed_aware / n, 1),
                Fmt(100.0 * slowdown / n, 1)});
    }
    std::printf("\n(congestion-aware routing cannot beat physics: when the "
                "whole\n city slows beyond the rho slack, deadlines need "
                "renegotiation —\n the integration point for the paper's "
                "real-time traffic extension)\n");
  }
  return 0;
}
