#include "traffic/congestion.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/epoch.h"
#include "common/logging.h"

namespace mtshare {

CongestionProfile::CongestionProfile() { hourly_.fill(1.0); }

CongestionProfile::CongestionProfile(const std::array<double, 24>& hourly)
    : hourly_(hourly) {
  for (double m : hourly_) MTSHARE_CHECK(m >= 1.0);
}

CongestionProfile CongestionProfile::Workday(double amplitude) {
  MTSHARE_CHECK(amplitude >= 0.0);
  std::array<double, 24> hourly;
  hourly.fill(1.0);
  // Shoulders and peaks of the two rush windows.
  const double peak = 0.8 * amplitude;      // up to +80%
  const double shoulder = 0.35 * amplitude;  // up to +35%
  hourly[7] = 1.0 + shoulder;
  hourly[8] = 1.0 + peak;
  hourly[9] = 1.0 + shoulder;
  hourly[12] = 1.0 + 0.15 * amplitude;
  hourly[17] = 1.0 + shoulder;
  hourly[18] = 1.0 + peak;
  hourly[19] = 1.0 + shoulder;
  return CongestionProfile(hourly);
}

double CongestionProfile::Multiplier(Seconds time) const {
  double day = std::fmod(time, 86400.0);
  if (day < 0) day += 86400.0;
  // Anchor multipliers at hour midpoints; interpolate linearly between.
  double h = day / 3600.0 - 0.5;
  if (h < 0) h += 24.0;
  int lo = static_cast<int>(h) % 24;
  int hi = (lo + 1) % 24;
  double frac = h - std::floor(h);
  return hourly_[lo] * (1.0 - frac) + hourly_[hi] * frac;
}

TimeDependentDijkstra::TimeDependentDijkstra(const RoadNetwork& network,
                                             const CongestionProfile& profile)
    : network_(network),
      profile_(profile),
      arrival_(network.num_vertices(), 0.0),
      parent_(network.num_vertices(), kInvalidVertex),
      epoch_(network.num_vertices(), 0) {}

bool TimeDependentDijkstra::Run(VertexId source, VertexId target,
                                Seconds departure_time) {
  MTSHARE_CHECK(source >= 0 && source < network_.num_vertices());
  MTSHARE_CHECK(target >= 0 && target < network_.num_vertices());
  NextEpoch(current_epoch_, epoch_);
  struct Entry {
    Seconds arrival;
    VertexId vertex;
    bool operator>(const Entry& other) const {
      return arrival > other.arrival;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  arrival_[source] = departure_time;
  parent_[source] = kInvalidVertex;
  epoch_[source] = current_epoch_;
  queue.push(Entry{departure_time, source});

  while (!queue.empty()) {
    Entry top = queue.top();
    queue.pop();
    if (epoch_[top.vertex] != current_epoch_ ||
        top.arrival > arrival_[top.vertex]) {
      continue;
    }
    if (top.vertex == target) return true;
    for (const Arc& arc : network_.OutArcs(top.vertex)) {
      // FIFO: evaluate the multiplier at departure from the tail.
      Seconds t = top.arrival + arc.cost * profile_.Multiplier(top.arrival);
      VertexId next = arc.head;
      if (epoch_[next] != current_epoch_ || t < arrival_[next]) {
        epoch_[next] = current_epoch_;
        arrival_[next] = t;
        parent_[next] = top.vertex;
        queue.push(Entry{t, next});
      }
    }
  }
  return target == kInvalidVertex;
}

Seconds TimeDependentDijkstra::EarliestArrival(VertexId source,
                                               VertexId target,
                                               Seconds departure_time) {
  if (source == target) return departure_time;
  if (!Run(source, target, departure_time)) return kInfiniteCost;
  return arrival_[target];
}

Seconds TimeDependentDijkstra::Cost(VertexId source, VertexId target,
                                    Seconds departure_time) {
  Seconds arrival = EarliestArrival(source, target, departure_time);
  return arrival == kInfiniteCost ? kInfiniteCost : arrival - departure_time;
}

Path TimeDependentDijkstra::FindPath(VertexId source, VertexId target,
                                     Seconds departure_time) {
  if (source == target) return Path::Trivial(source);
  if (!Run(source, target, departure_time)) return Path::Invalid();
  Path path;
  path.cost = arrival_[target] - departure_time;
  path.valid = true;
  for (VertexId v = target; v != kInvalidVertex; v = parent_[v]) {
    path.vertices.push_back(v);
    if (v == source) break;
  }
  std::reverse(path.vertices.begin(), path.vertices.end());
  return path;
}

Seconds TimeDependentDijkstra::RetimePath(const std::vector<VertexId>& path,
                                          Seconds departure_time) const {
  Seconds t = departure_time;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const Arc* best = nullptr;
    for (const Arc& arc : network_.OutArcs(path[i])) {
      if (arc.head == path[i + 1] &&
          (best == nullptr || arc.cost < best->cost)) {
        best = &arc;
      }
    }
    MTSHARE_CHECK(best != nullptr);
    t += best->cost * profile_.Multiplier(t);
  }
  return t;
}

}  // namespace mtshare
