#include "demand/demand_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace mtshare {
namespace {

// Relative hourly demand, hours 0..23. Shapes chosen to match the paper's
// Fig. 5a utilization curves: workday maxima at the 8:00-9:00 morning peak
// and a secondary evening peak; weekends flatter with a late-morning hump.
constexpr double kWorkdayProfile[24] = {
    0.10, 0.06, 0.04, 0.03, 0.04, 0.10, 0.30, 0.75, 1.00, 0.90,
    0.70, 0.65, 0.60, 0.58, 0.60, 0.65, 0.80, 0.95, 0.90, 0.70,
    0.55, 0.45, 0.30, 0.18};
constexpr double kWeekendProfile[24] = {
    0.15, 0.10, 0.06, 0.04, 0.04, 0.06, 0.12, 0.25, 0.45, 0.60,
    0.70, 0.72, 0.70, 0.68, 0.66, 0.65, 0.68, 0.72, 0.70, 0.65,
    0.60, 0.52, 0.40, 0.25};

}  // namespace

int32_t HourOf(Seconds time) {
  double day_sec = std::fmod(time, 86400.0);
  if (day_sec < 0) day_sec += 86400.0;
  return static_cast<int32_t>(day_sec / 3600.0) % 24;
}

double FlowWeight(HotspotType from, HotspotType to, int32_t hour) {
  double w = 1.0;
  bool morning = hour >= 7 && hour <= 10;
  bool evening = hour >= 17 && hour <= 20;
  bool midday = hour >= 11 && hour <= 16;
  bool night = hour >= 21 || hour <= 5;
  using H = HotspotType;
  if (morning) {
    if (from == H::kResidential && to == H::kBusiness) w *= 4.0;
    if (from == H::kBusiness && to == H::kResidential) w *= 0.5;
  }
  if (evening) {
    if (from == H::kBusiness && to == H::kResidential) w *= 4.0;
    if (from == H::kBusiness && to == H::kLeisure) w *= 2.0;
  }
  if (midday && from == H::kBusiness && to == H::kBusiness) w *= 2.0;
  if (night && from == H::kLeisure && to == H::kResidential) w *= 3.0;
  return w;
}

double DemandModel::DiurnalWeight(DayType day, int32_t hour) {
  MTSHARE_CHECK(hour >= 0 && hour < 24);
  return day == DayType::kWorkday ? kWorkdayProfile[hour]
                                  : kWeekendProfile[hour];
}

DemandModel::DemandModel(const RoadNetwork& network,
                         const DemandModelOptions& options)
    : network_(network), options_(options) {
  MTSHARE_CHECK(network.num_vertices() > 0);
  MTSHARE_CHECK(options.num_hotspots > 0);
  double cell = std::max(50.0, std::min(network.bounds().Width(),
                                        network.bounds().Height()) /
                                   64.0);
  snap_ = std::make_unique<GridIndex>(network, cell);
  for (int32_t h = 0; h < 24; ++h) {
    max_diurnal_weight_ =
        std::max(max_diurnal_weight_, DiurnalWeight(options.day, h));
  }

  Rng rng(options.seed);
  const BoundingBox& box = network.bounds();
  // Keep hotspots away from the map border so their Gaussians stay inside.
  double margin_x = box.Width() * 0.12;
  double margin_y = box.Height() * 0.12;
  for (int32_t h = 0; h < options.num_hotspots; ++h) {
    centers_.push_back(
        Point{rng.NextUniform(box.min.x + margin_x, box.max.x - margin_x),
              rng.NextUniform(box.min.y + margin_y, box.max.y - margin_y)});
    types_.push_back(static_cast<HotspotType>(h % 3));
  }
}

Point DemandModel::SampleEndpoint(int32_t hotspot, Rng& rng) const {
  const BoundingBox& box = network_.bounds();
  if (hotspot < 0) {  // uniform background
    return Point{rng.NextUniform(box.min.x, box.max.x),
                 rng.NextUniform(box.min.y, box.max.y)};
  }
  const Point& c = centers_[hotspot];
  Point p{c.x + rng.NextGaussian() * options_.hotspot_sigma_m,
          c.y + rng.NextGaussian() * options_.hotspot_sigma_m};
  p.x = std::clamp(p.x, box.min.x, box.max.x);
  p.y = std::clamp(p.y, box.min.y, box.max.y);
  return p;
}

int32_t DemandModel::PickOriginHotspot(int32_t hour, Rng& rng) const {
  if (rng.NextDouble() < options_.uniform_fraction) return -1;
  // Origin propensity: where trips *start* at this hour is the row-sum of
  // the flow matrix from each hotspot role.
  std::vector<double> weights(centers_.size());
  for (size_t h = 0; h < centers_.size(); ++h) {
    double acc = 0.0;
    for (size_t g = 0; g < centers_.size(); ++g) {
      if (g == h) continue;
      acc += FlowWeight(types_[h], types_[g], hour);
    }
    weights[h] = acc;
  }
  return static_cast<int32_t>(rng.NextDiscrete(weights));
}

int32_t DemandModel::PickDestinationHotspot(int32_t origin_hotspot,
                                            int32_t hour, Rng& rng) const {
  if (rng.NextDouble() < options_.uniform_fraction) return -1;
  HotspotType from = origin_hotspot >= 0 ? types_[origin_hotspot]
                                         : HotspotType::kResidential;
  std::vector<double> weights(centers_.size());
  for (size_t g = 0; g < centers_.size(); ++g) {
    weights[g] = (static_cast<int32_t>(g) == origin_hotspot)
                     ? 0.0
                     : FlowWeight(from, types_[g], hour);
  }
  return static_cast<int32_t>(rng.NextDiscrete(weights));
}

Trip DemandModel::SampleTrip(Seconds time, Rng& rng) const {
  int32_t hour = HourOf(time);
  int32_t oh = PickOriginHotspot(hour, rng);
  VertexId origin = snap_->NearestVertex(SampleEndpoint(oh, rng));
  VertexId dest = origin;
  for (int attempt = 0; attempt < 16 && dest == origin; ++attempt) {
    int32_t dh = PickDestinationHotspot(oh, hour, rng);
    Point p = SampleEndpoint(dh, rng);
    if (Distance(p, network_.coord(origin)) < options_.min_trip_m) continue;
    dest = snap_->NearestVertex(p);
  }
  if (dest == origin) {
    // Degenerate fallback: any other vertex.
    dest = (origin + 1) % network_.num_vertices();
  }
  return Trip{time, origin, dest};
}

std::vector<Trip> DemandModel::GenerateTrips(Seconds t_begin, Seconds t_end,
                                             int32_t count, Rng& rng) const {
  MTSHARE_CHECK(t_end > t_begin);
  MTSHARE_CHECK(count >= 0);
  std::vector<Trip> trips;
  trips.reserve(count);
  while (static_cast<int32_t>(trips.size()) < count) {
    const Seconds t = SampleReleaseTime(t_begin, t_end, rng);
    trips.push_back(SampleTrip(t, rng));
  }
  std::sort(trips.begin(), trips.end(), [](const Trip& a, const Trip& b) {
    return a.release_time < b.release_time;
  });
  return trips;
}

Seconds DemandModel::SampleReleaseTime(Seconds t_begin, Seconds t_end,
                                       Rng& rng) const {
  for (;;) {
    const Seconds t = rng.NextUniform(t_begin, t_end);
    const double accept =
        DiurnalWeight(options_.day, HourOf(t)) / max_diurnal_weight_;
    if (rng.NextDouble() <= accept) return t;
  }
}

}  // namespace mtshare
