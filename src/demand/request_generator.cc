#include "demand/request_generator.h"

#include <algorithm>

#include "common/logging.h"

namespace mtshare {

Status ScenarioOptions::Validate() const {
  if (!(t_begin < t_end)) {
    return Status::InvalidArgument("scenario window must have t_begin < t_end");
  }
  if (num_requests < 0 || num_historical_trips < 0) {
    return Status::InvalidArgument(
        "request and historical trip counts must be non-negative");
  }
  if (!(rho > 1.0)) {
    return Status::InvalidArgument(
        "rho must exceed 1.0 (deadline above direct travel time)");
  }
  if (!(offline_fraction >= 0.0 && offline_fraction <= 1.0)) {
    return Status::InvalidArgument("offline fraction must lie in [0, 1]");
  }
  return Status::OK();
}

std::vector<Trip> GenerateHistoricalTrips(const DemandModel& demand,
                                          int32_t num_trips, Rng& rng) {
  return demand.GenerateTrips(0.0, 86400.0, num_trips, rng);
}

std::vector<OdPair> OdPairsOf(const std::vector<Trip>& trips) {
  std::vector<OdPair> pairs;
  pairs.reserve(trips.size());
  for (const Trip& t : trips) pairs.emplace_back(t.origin, t.destination);
  return pairs;
}

std::vector<OdPair> Scenario::HistoricalOdPairs() const {
  return OdPairsOf(historical_trips);
}

int32_t Scenario::CountOffline() const {
  int32_t n = 0;
  for (const RideRequest& r : requests) n += r.offline ? 1 : 0;
  return n;
}

std::optional<RideRequest> MaterializeRequest(Trip trip,
                                              const DemandModel& demand,
                                              DistanceOracle& oracle,
                                              const ScenarioOptions& options,
                                              Rng& rng) {
  Seconds direct = oracle.Cost(trip.origin, trip.destination);
  for (int attempt = 0; attempt < 8 && (direct == kInfiniteCost ||
                                        trip.origin == trip.destination);
       ++attempt) {
    trip = demand.SampleTrip(trip.release_time, rng);
    direct = oracle.Cost(trip.origin, trip.destination);
  }
  if (direct == kInfiniteCost || trip.origin == trip.destination) {
    return std::nullopt;
  }
  RideRequest r;
  r.release_time = trip.release_time;
  r.origin = trip.origin;
  r.destination = trip.destination;
  r.direct_cost = direct;
  r.deadline = trip.release_time + options.rho * direct;
  r.passengers = 1;
  if (rng.NextDouble() < options.multi_rider_fraction &&
      options.max_party > 1) {
    r.passengers = static_cast<int32_t>(rng.NextInt(2, options.max_party));
  }
  r.offline = rng.NextDouble() < options.offline_fraction;
  return r;
}

std::vector<RideRequest> DrawWindowRequests(const DemandModel& demand,
                                            DistanceOracle& oracle,
                                            const ScenarioOptions& options,
                                            Rng& rng) {
  MTSHARE_CHECK(options.Validate().ok());
  std::vector<Trip> trips =
      demand.GenerateTrips(options.t_begin, options.t_end,
                           options.num_requests, rng);
  std::vector<RideRequest> requests;
  requests.reserve(trips.size());
  RequestId next_id = 0;
  for (const Trip& trip : trips) {
    std::optional<RideRequest> r =
        MaterializeRequest(trip, demand, oracle, options, rng);
    if (!r.has_value()) continue;  // dropped (SCC networks make this rare)
    r->id = next_id++;
    requests.push_back(*r);
  }
  // GenerateTrips sorts by time; dropped samples keep order intact.
  return requests;
}

Scenario MakeScenario(const RoadNetwork& /*network*/,
                      const DemandModel& demand, DistanceOracle& oracle,
                      const ScenarioOptions& options) {
  Rng rng(options.seed);
  Scenario scenario;
  scenario.historical_trips =
      GenerateHistoricalTrips(demand, options.num_historical_trips, rng);
  scenario.requests = DrawWindowRequests(demand, oracle, options, rng);
  return scenario;
}

}  // namespace mtshare
