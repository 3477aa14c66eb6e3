// Reproduces paper Figs. 6-13 and Table III: the schemes over a range of
// fleet sizes, in the peak (8:00-9:00 workday) and the nonpeak scenario
// (10:00-11:00 weekend, ~1/3 of requests offline). The paper reports each
// window's sweep as several metrics of one experiment, so each scheme x
// fleet cell runs once, one run after another, and every table of the
// window prints from the kept Metrics. Paper shapes:
//  Fig. 6:  served, peak. Ridesharing >> No-Sharing; mT-Share serves the
//           most (42% over T-Share, 36% over pGreedyDP at 3000 taxis); all
//           schemes grow with fleet size.
//  Fig. 7:  response, peak. No-Sharing < 1 ms; T-Share fast; mT-Share
//           slightly above T-Share; pGreedyDP slowest (4-10x over
//           mT-Share); all grow with fleet size. Absolute values differ
//           (paper: Python on i7-6700; ours: C++), ratios are the target.
//  Fig. 8:  detour, peak. No-Sharing has zero detour; ridesharing schemes
//           sit at 1-4 minutes and fall as fleets grow; T-Share smallest,
//           mT-Share a close second, pGreedyDP roughly doubles T-Share.
//  Fig. 9:  waiting, peak. Falls as fleets grow; T-Share shortest
//           (nearest-first), No-Sharing ~1 min (fewest effective supplies);
//           mT-Share slightly above pGreedyDP but within 0.5 min.
//  Tab. III: candidates, peak. No-Sharing smallest (vacant only); T-Share's
//           dual-side search keeps far fewer than pGreedyDP (which has the
//           most); mT-Share in between — enough to find the best match,
//           pruned enough to respond fast.
//  Fig. 10: served, nonpeak. Ridesharing's edge over No-Sharing shrinks
//           (T-Share ~ No-Sharing in some settings); mT-Share-pro serves
//           the most (probabilistic routing adds 13-24% over mT-Share;
//           +62% over T-Share, +58% over pGreedyDP).
//  Fig. 11: response, nonpeak. The basic schemes behave as in the peak;
//           mT-Share-pro is 2.5-4.5x slower than mT-Share (probabilistic
//           routing is expensive) yet still answers each request far
//           faster than pGreedyDP in the paper's absolute terms.
//  Fig. 12: detour, nonpeak. Same ordering as the peak for the basic
//           schemes; mT-Share-pro largest (probabilistic routes chase
//           offline hailers) but within ~0.5 min of pGreedyDP.
//  Fig. 13: waiting, nonpeak. Larger than in the peak (fewer requests,
//           longer approaches), falls with fleet size; mT-Share-pro the
//           largest (~2 min over pGreedyDP): probabilistic routes lengthen
//           approaches.
#include "bench_common.h"

using namespace mtshare;
using namespace mtshare::bench;

namespace {

/// One window's scheme x fleet grid with the Metrics of every cell, in
/// run order: cells[f * schemes.size() + s] ran schemes[s] with fleets[f].
struct Sweep {
  std::vector<SchemeKind> schemes;
  std::vector<int32_t> fleets;
  std::vector<Metrics> cells;
};

/// Runs every cell once, fleet-major. Runs never overlap, so the response
/// times are not skewed by one another.
Sweep RunSweep(BenchEnv& env, std::vector<SchemeKind> schemes,
               const std::vector<int32_t>& fleets) {
  Sweep sweep{std::move(schemes), fleets, {}};
  for (int32_t taxis : sweep.fleets) {
    for (SchemeKind scheme : sweep.schemes) {
      sweep.cells.push_back(env.Run(scheme, taxis));
    }
  }
  return sweep;
}

/// One metric of the sweep: a row per fleet size, a column per scheme.
void PrintTable(const Sweep& sweep, std::string (*cell)(const Metrics&)) {
  std::vector<std::string> header = {"taxis"};
  for (SchemeKind scheme : sweep.schemes) header.push_back(SchemeName(scheme));
  PrintHeader(header);
  const size_t width = sweep.schemes.size();
  for (size_t f = 0; f < sweep.fleets.size(); ++f) {
    std::vector<std::string> row = {std::to_string(sweep.fleets[f])};
    for (size_t s = 0; s < width; ++s) {
      row.push_back(cell(sweep.cells[f * width + s]));
    }
    PrintRow(row);
  }
}

std::string Served(const Metrics& m) {
  return std::to_string(m.ServedRequests());
}
std::string ResponseMs(const Metrics& m) { return Fmt(m.MeanResponseMs(), 4); }
std::string DetourMin(const Metrics& m) {
  return Fmt(m.MeanDetourMinutes(), 2);
}
std::string WaitingMin(const Metrics& m) {
  return Fmt(m.MeanWaitingMinutes(), 2);
}
std::string Candidates(const Metrics& m) { return Fmt(m.MeanCandidates(), 1); }

void PeakSweep(const BenchScale& scale) {
  BenchEnv env(Window::kPeak);
  PrintBanner("Figs. 6-9, Table III — peak fleet sweep",
              "paper Sec. V: four schemes over 500-3000 taxis, 8:00-9:00 of "
              "a workday");
  const Sweep sweep = RunSweep(
      env,
      {SchemeKind::kNoSharing, SchemeKind::kTShare, SchemeKind::kPGreedyDp,
       SchemeKind::kMtShare},
      scale.fleet_sizes);

  PrintCaption(
      "Fig. 6 — served requests in peak scenario",
      "paper @3000 taxis: No-Sharing 6534, T-Share 8441, pGreedyDP 8868, "
      "mT-Share 11906 (of 29534)");
  std::printf("requests: %d (scaled from 29534)\n",
              static_cast<int>(env.scenario().requests.size()));
  PrintTable(sweep, Served);

  PrintCaption(
      "Fig. 7 — response time in peak scenario (ms/request)",
      "paper: No-Sharing <1ms; mT-Share 35-140ms; pGreedyDP 4-10x mT-Share");
  PrintTable(sweep, ResponseMs);

  PrintCaption("Fig. 8 — detour time in peak scenario (minutes)",
               "paper: T-Share least; mT-Share close (within 31-40% of "
               "pGreedyDP's, which ~doubles T-Share)");
  PrintTable(sweep, DetourMin);

  PrintCaption("Fig. 9 — waiting time in peak scenario (minutes)",
               "paper: T-Share smallest; mT-Share within 0.5 min of "
               "pGreedyDP; all fall with more taxis");
  PrintTable(sweep, WaitingMin);

  PrintCaption("Table III — average candidate taxis per request (peak)",
               "paper @3000 taxis: No-Sharing 4.4, T-Share 20.8, pGreedyDP "
               "28.2, mT-Share 25.6 (values approximate)");
  PrintTable(sweep, Candidates);
}

void NonPeakSweep(const BenchScale& scale) {
  BenchEnv env(Window::kNonPeak);
  PrintBanner("Figs. 10-13 — nonpeak fleet sweep",
              "paper Sec. V: five schemes over 500-3000 taxis, 10:00-11:00 "
              "of a weekend, ~1/3 of requests offline");
  const Sweep sweep = RunSweep(
      env,
      {SchemeKind::kNoSharing, SchemeKind::kTShare, SchemeKind::kPGreedyDp,
       SchemeKind::kMtShare, SchemeKind::kMtSharePro},
      scale.fleet_sizes);

  PrintCaption(
      "Fig. 10 — served requests in nonpeak scenario",
      "paper: mT-Share-pro serves 13-24% more than mT-Share, 62%/58% more "
      "than T-Share/pGreedyDP");
  std::printf("requests: %d (%d offline)\n",
              static_cast<int>(env.scenario().requests.size()),
              env.scenario().CountOffline());
  PrintTable(sweep, Served);

  PrintCaption("Fig. 11 — response time in nonpeak scenario (ms/request)",
               "paper: mT-Share-pro 2.5-4.5x slower than mT-Share");
  PrintTable(sweep, ResponseMs);

  PrintCaption("Fig. 12 — detour time in nonpeak scenario (minutes)",
               "paper: mT-Share-pro largest, within ~0.5 min of pGreedyDP");
  PrintTable(sweep, DetourMin);

  PrintCaption("Fig. 13 — waiting time in nonpeak scenario (minutes)",
               "paper: decreasing in fleet size; mT-Share-pro largest");
  PrintTable(sweep, WaitingMin);
}

}  // namespace

int main() {
  const BenchScale scale = GetScale();
  // One window at a time, so only one city's system is alive at once.
  PeakSweep(scale);
  NonPeakSweep(scale);
  return 0;
}
