#ifndef MTSHARE_DEMAND_REQUEST_GENERATOR_H_
#define MTSHARE_DEMAND_REQUEST_GENERATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "demand/demand_model.h"
#include "demand/request.h"
#include "demand/trip.h"
#include "routing/distance_oracle.h"

namespace mtshare {

/// Parameters of an evaluation scenario (paper Sec. V-A1).
struct ScenarioOptions {
  /// Scenario window, seconds since midnight. Peak: 8:00-9:00 workday;
  /// nonpeak: 10:00-11:00 weekend.
  Seconds t_begin = 8 * 3600.0;
  Seconds t_end = 9 * 3600.0;
  /// Requests released inside the window.
  int32_t num_requests = 5000;
  /// Fraction marked offline (hidden until encountered). Paper nonpeak:
  /// 5000 of 15480 ~ 32%; peak: 0.
  double offline_fraction = 0.0;
  /// Deadline flexibility rho: deadline = t + rho * cost(o, d) (eq. (9),
  /// Table II default 1.3).
  double rho = 1.3;
  /// Riders per request (1..capacity); >1 sampled with small probability.
  double multi_rider_fraction = 0.15;
  int32_t max_party = 2;
  /// Historical trips to generate for the transition statistics ("the rest
  /// of the taxi data" in Sec. V-A1).
  int32_t num_historical_trips = 40000;
  uint64_t seed = 29;

  /// InvalidArgument unless the window is non-empty (t_begin < t_end),
  /// both counts are non-negative, rho > 1 and offline_fraction lies in
  /// [0, 1]: everything DrawWindowRequests assumes.
  Status Validate() const;
};

/// A fully materialized scenario: the request stream the dispatcher will
/// see plus the historical trips that train the mobility statistics.
struct Scenario {
  std::vector<RideRequest> requests;  // sorted by release time
  std::vector<Trip> historical_trips;

  std::vector<OdPair> HistoricalOdPairs() const;
  int32_t CountOffline() const;
};

/// The historical trips that train the mobility statistics: `num_trips`
/// draws from `rng` spread over the whole day, so the statistics see every
/// diurnal regime, as the paper trains on the full dataset minus the
/// evaluation window. A scenario draws its history with this, first thing
/// on Rng(options.seed); a caller that needs a system and its scenario
/// calls CreateScenarioSystem (core/mtshare_system.h), and only a caller
/// that needs the history alone, with no request window, calls this.
std::vector<Trip> GenerateHistoricalTrips(const DemandModel& demand,
                                          int32_t num_trips, Rng& rng);

/// The (origin, destination) pair of every trip, in order.
std::vector<OdPair> OdPairsOf(const std::vector<Trip>& trips);

/// Turns a sampled trip into a ride request, the one step MakeScenario and
/// GeneratorRequestSource share. Re-draws the trip at its release time, up
/// to 8 times, while its endpoints coincide or are unreachable; then prices
/// the direct trip, sets deadline = release + rho * direct, and draws the
/// party size and the offline flag from `rng`, in that order. Returns
/// nullopt when every draw was pathological. The id is the caller's.
std::optional<RideRequest> MaterializeRequest(Trip trip,
                                              const DemandModel& demand,
                                              DistanceOracle& oracle,
                                              const ScenarioOptions& options,
                                              Rng& rng);

/// The window's requests, the step MakeScenario and CreateScenarioSystem
/// share: options.num_requests trips drawn from `rng` over [t_begin, t_end)
/// and each made a request by MaterializeRequest on `oracle`. A trip whose
/// redraws all fail is dropped; ids are dense from 0 in release order.
/// Dies on options that fail Validate() (CreateScenarioSystem returns the
/// error instead).
std::vector<RideRequest> DrawWindowRequests(const DemandModel& demand,
                                            DistanceOracle& oracle,
                                            const ScenarioOptions& options,
                                            Rng& rng);

/// Builds a scenario on Rng(options.seed): draws the history with
/// GenerateHistoricalTrips, then the window's requests with
/// DrawWindowRequests, priced on `oracle`. To evaluate a system trained on
/// this history, call CreateScenarioSystem instead: it draws both once and
/// prices the requests on the system's own oracle.
Scenario MakeScenario(const RoadNetwork& network, const DemandModel& demand,
                      DistanceOracle& oracle, const ScenarioOptions& options);

}  // namespace mtshare

#endif  // MTSHARE_DEMAND_REQUEST_GENERATOR_H_
