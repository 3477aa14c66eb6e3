#ifndef MTSHARE_PAYMENT_PAYMENT_MODEL_H_
#define MTSHARE_PAYMENT_PAYMENT_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace mtshare {

// Parameters of the benefit-sharing payment model (paper Sec. IV-D), fixed
// at their Table II values throughout the paper's evaluation.

/// Share beta of the ridesharing benefit going to passengers as a group
/// (the driver keeps 1 - beta).
inline constexpr double kPaymentBeta = 0.80;
/// Base detour rate eta guaranteeing zero-detour passengers still gain.
inline constexpr double kPaymentEta = 0.01;
/// Regular taxi tariff: flag fare covering the first kBaseKm, then a per-km
/// rate (Chengdu-style tariff).
inline constexpr double kBaseFare = 8.0;
inline constexpr double kBaseKm = 2.0;
inline constexpr double kFarePerKm = 1.9;

/// Fare of a regular (non-shared) taxi ride over `distance_m` meters.
double RegularFare(double distance_m);

/// One passenger's view of a settled ridesharing episode.
struct PassengerSettlement {
  RequestId request = kInvalidRequest;
  double regular_fare = 0.0;  ///< f^s: what the trip would cost unshared
  double shared_fare = 0.0;   ///< f (eq. 8): what the passenger pays
  double detour_rate = 0.0;   ///< sigma (eqs. 6/7)
};

/// Input per passenger of an episode.
struct EpisodePassenger {
  RequestId request = kInvalidRequest;
  double direct_m = 0.0;    ///< shortest-path trip length
  double traveled_m = 0.0;  ///< distance actually ridden aboard the taxi
};

/// Outcome of settling one ridesharing episode (a maximal occupied
/// interval of one taxi).
struct EpisodeSettlement {
  double benefit = 0.0;        ///< B (eq. 5), clamped at >= 0
  double ridesharing_fare = 0.0;  ///< F: regular fare of the driven distance
  double driver_income = 0.0;  ///< F + (1 - beta) * B
  std::vector<PassengerSettlement> passengers;
};

/// Applies eqs. (5)-(8): B = sum f^s - F split between driver (1-beta) and
/// passengers (beta), the passenger share divided in proportion to detour
/// rates sigma_i = eta + (traveled - direct) / direct.
///
/// When the episode yields no positive benefit (e.g., a single passenger on
/// a probabilistic detour), every passenger pays exactly the regular fare
/// (the model's no-loss guarantee) and the driver collects those fares.
EpisodeSettlement SettleEpisode(const std::vector<EpisodePassenger>& riders,
                                double episode_driven_m);

}  // namespace mtshare

#endif  // MTSHARE_PAYMENT_PAYMENT_MODEL_H_
