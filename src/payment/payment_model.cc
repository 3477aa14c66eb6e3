#include "payment/payment_model.h"

#include <algorithm>

#include "common/logging.h"

namespace mtshare {

double RegularFare(double distance_m) {
  MTSHARE_CHECK(distance_m >= 0.0);
  double km = distance_m / 1000.0;
  if (km <= kBaseKm) return kBaseFare;
  return kBaseFare + (km - kBaseKm) * kFarePerKm;
}

EpisodeSettlement SettleEpisode(const std::vector<EpisodePassenger>& riders,
                                double episode_driven_m) {
  MTSHARE_CHECK(!riders.empty());
  EpisodeSettlement out;
  out.ridesharing_fare = RegularFare(episode_driven_m);

  double total_regular = 0.0;
  double sigma_sum = 0.0;
  out.passengers.reserve(riders.size());
  for (const EpisodePassenger& r : riders) {
    MTSHARE_CHECK(r.direct_m > 0.0);
    PassengerSettlement p;
    p.request = r.request;
    p.regular_fare = RegularFare(r.direct_m);
    // sigma_i = eta + detour distance / direct distance (eq. 6); clamp the
    // detour at zero against numeric jitter.
    double detour = std::max(0.0, r.traveled_m - r.direct_m);
    p.detour_rate = kPaymentEta + detour / r.direct_m;
    total_regular += p.regular_fare;
    sigma_sum += p.detour_rate;
    out.passengers.push_back(p);
  }

  double benefit = total_regular - out.ridesharing_fare;
  if (benefit <= 0.0 || sigma_sum <= 0.0) {
    // No shared benefit: everyone pays the regular fare (no-loss
    // guarantee); the driver collects them all.
    out.benefit = 0.0;
    for (PassengerSettlement& p : out.passengers) {
      p.shared_fare = p.regular_fare;
    }
    out.driver_income = total_regular;
    return out;
  }

  out.benefit = benefit;
  double passenger_pool = kPaymentBeta * benefit;
  for (PassengerSettlement& p : out.passengers) {
    p.shared_fare =
        p.regular_fare - passenger_pool * (p.detour_rate / sigma_sum);
  }
  out.driver_income = out.ridesharing_fare + (1.0 - kPaymentBeta) * benefit;
  return out;
}

}  // namespace mtshare
