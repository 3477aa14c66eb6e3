#ifndef MTSHARE_DEMAND_DEMAND_MODEL_H_
#define MTSHARE_DEMAND_DEMAND_MODEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "demand/trip.h"
#include "graph/road_network.h"
#include "spatial/grid_index.h"

namespace mtshare {

/// Day profile used by the diurnal demand curve (paper Fig. 5a shows both).
enum class DayType { kWorkday, kWeekend };

/// Functional role of a demand hotspot; drives the time-dependent flow
/// asymmetry (residential -> business in the morning peak, the reverse in
/// the evening) that gives vertices distinguishable transition patterns —
/// the signal bipartite map partitioning mines.
enum class HotspotType { kResidential, kBusiness, kLeisure };

struct DemandModelOptions {
  int32_t num_hotspots = 9;
  /// Gaussian spread of trip endpoints around a hotspot.
  double hotspot_sigma_m = 500.0;
  /// Probability that an endpoint is uniform background instead of
  /// hotspot-anchored.
  double uniform_fraction = 0.15;
  /// Resample destinations closer than this to the origin (GPS noise trips
  /// are filtered out of taxi datasets too).
  double min_trip_m = 800.0;
  uint64_t seed = 23;
  DayType day = DayType::kWorkday;
};

/// Synthetic spatio-temporal taxi demand: a hotspot mixture with
/// time-varying directional flows and the diurnal volume profile of the
/// paper's Chengdu dataset (Fig. 5). Substitute for the Didi GAIA trips —
/// see DESIGN.md for why the substitution preserves the evaluation.
class DemandModel {
 public:
  DemandModel(const RoadNetwork& network, const DemandModelOptions& options);

  /// Samples one trip released at `time` (seconds since midnight; values
  /// >= 24h wrap for multi-day horizons).
  Trip SampleTrip(Seconds time, Rng& rng) const;

  /// `count` trips with release times from SampleReleaseTime, each
  /// sampled right after its time, sorted by time.
  std::vector<Trip> GenerateTrips(Seconds t_begin, Seconds t_end,
                                  int32_t count, Rng& rng) const;

  /// One release time in [t_begin, t_end), by rejection sampling against
  /// the diurnal profile: uniform candidates, each accepted with
  /// probability DiurnalWeight(its hour) / the day's largest weight. The
  /// one release-time sampler of GenerateTrips and GeneratorRequestSource.
  Seconds SampleReleaseTime(Seconds t_begin, Seconds t_end, Rng& rng) const;

  /// Relative demand weight of the hour-of-day (0-23) for a day type.
  /// The workday curve peaks at hour 8 (the paper's peak scenario) and the
  /// weekend curve is flatter with a late-morning hump.
  static double DiurnalWeight(DayType day, int32_t hour);

  const std::vector<Point>& hotspot_centers() const { return centers_; }
  const std::vector<HotspotType>& hotspot_types() const { return types_; }

 private:
  Point SampleEndpoint(int32_t hotspot, Rng& rng) const;
  int32_t PickOriginHotspot(int32_t hour, Rng& rng) const;
  int32_t PickDestinationHotspot(int32_t origin_hotspot, int32_t hour,
                                 Rng& rng) const;

  const RoadNetwork& network_;
  DemandModelOptions options_;
  /// The largest DiurnalWeight of options_.day.
  double max_diurnal_weight_ = 0.0;
  std::unique_ptr<GridIndex> snap_;
  std::vector<Point> centers_;
  std::vector<HotspotType> types_;
};

/// Time-of-day flow multiplier between hotspot roles; exposed for tests.
double FlowWeight(HotspotType from, HotspotType to, int32_t hour);

/// Hour-of-day (0-23) of a timestamp; values >= 24h wrap, negatives are
/// shifted into the day.
int32_t HourOf(Seconds time);

}  // namespace mtshare

#endif  // MTSHARE_DEMAND_DEMAND_MODEL_H_
