// The money side of ridesharing, worked end to end (paper Sec. IV-D):
// three passengers share a taxi for part of their trips; this example
// settles the episode with eqs. (5)-(8) and prints who pays what, why the
// driver still comes out ahead, and how the detour-proportional split
// compensates the rider who looped the longest.
//
//   $ ./build/examples/payment_walkthrough
#include <cstdio>

#include "payment/payment_model.h"

using namespace mtshare;

int main() {
  // Table II: beta = 0.80, eta = 0.01, Chengdu-style tariff.
  std::printf("tariff: %.0f yuan covers the first %.0f km, then %.2f/km\n",
              kBaseFare, kBaseKm, kFarePerKm);
  std::printf("benefit split: passengers %.0f%%, driver %.0f%%; base detour "
              "rate eta=%.2f\n\n",
              kPaymentBeta * 100, (1 - kPaymentBeta) * 100, kPaymentEta);

  // One shared episode: the taxi drove 11.2 km while occupied and carried
  // three overlapping trips.
  std::vector<EpisodePassenger> riders = {
      {/*request=*/1, /*direct_m=*/6200.0, /*traveled_m=*/6200.0},  // no detour
      {/*request=*/2, /*direct_m=*/4800.0, /*traveled_m=*/5900.0},  // +23%
      {/*request=*/3, /*direct_m=*/3500.0, /*traveled_m=*/5200.0},  // +49%
  };
  const double driven_m = 11200.0;
  EpisodeSettlement s = SettleEpisode(riders, driven_m);

  double sum_regular = 0.0;
  std::printf("%-10s %10s %10s %10s %10s\n", "passenger", "direct km",
              "sigma", "alone", "shared");
  for (size_t i = 0; i < s.passengers.size(); ++i) {
    const PassengerSettlement& p = s.passengers[i];
    sum_regular += p.regular_fare;
    std::printf("#%-9lld %10.1f %10.3f %10.2f %10.2f\n",
                static_cast<long long>(p.request), riders[i].direct_m / 1000.0,
                p.detour_rate, p.regular_fare, p.shared_fare);
  }
  std::printf("\nseparate rides would cost %.2f; the shared route's fare is "
              "%.2f\n",
              sum_regular, s.ridesharing_fare);
  std::printf("ridesharing benefit B = %.2f (eq. 5)\n", s.benefit);
  std::printf("passengers keep beta*B = %.2f, split by detour rates "
              "(eqs. 6-8)\n",
              kPaymentBeta * s.benefit);
  std::printf("driver earns %.2f = route fare %.2f + (1-beta)*B %.2f\n",
              s.driver_income, s.ridesharing_fare,
              (1 - kPaymentBeta) * s.benefit);
  std::printf("\nnote how passenger #3 (largest detour) receives the largest\n"
              "discount, and nobody pays more than riding alone.\n");
  return 0;
}
