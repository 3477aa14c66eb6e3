#include "payment/payment_model.h"

#include <gtest/gtest.h>

namespace mtshare {
namespace {

// The model runs at Table II's constants: beta 0.8, eta 0.01, and an
// 8 yuan flag fare for 2 km plus 1.9 per km.

TEST(RegularFareTest, BaseFareCoversShortTrips) {
  EXPECT_DOUBLE_EQ(RegularFare(0.0), 8.0);
  EXPECT_DOUBLE_EQ(RegularFare(1500.0), 8.0);
  EXPECT_DOUBLE_EQ(RegularFare(2000.0), 8.0);
}

TEST(RegularFareTest, PerKmBeyondBase) {
  EXPECT_DOUBLE_EQ(RegularFare(5000.0), 8.0 + 3.0 * 1.9);
  EXPECT_DOUBLE_EQ(RegularFare(2500.0), 8.0 + 0.5 * 1.9);
}

TEST(SettleEpisodeTest, SinglePassengerNoDetourPaysRegular) {
  // One rider, driven distance == direct distance: B = 0.
  std::vector<EpisodePassenger> riders = {{1, 5000.0, 5000.0}};
  EpisodeSettlement s = SettleEpisode(riders, 5000.0);
  EXPECT_DOUBLE_EQ(s.benefit, 0.0);
  ASSERT_EQ(s.passengers.size(), 1u);
  EXPECT_DOUBLE_EQ(s.passengers[0].shared_fare,
                   s.passengers[0].regular_fare);
  EXPECT_DOUBLE_EQ(s.driver_income, s.passengers[0].regular_fare);
}

TEST(SettleEpisodeTest, SharedEpisodeProducesPositiveBenefit) {
  // Two riders with 6 km direct trips sharing a 8 km drive.
  std::vector<EpisodePassenger> riders = {{1, 6000.0, 7000.0},
                                          {2, 6000.0, 7500.0}};
  EpisodeSettlement s = SettleEpisode(riders, 8000.0);
  double f_s = RegularFare(6000.0);
  double f_route = RegularFare(8000.0);
  EXPECT_NEAR(s.benefit, 2 * f_s - f_route, 1e-9);
  EXPECT_GT(s.benefit, 0.0);
  // eq. (8): everyone pays strictly less than regular.
  for (const auto& p : s.passengers) {
    EXPECT_LT(p.shared_fare, p.regular_fare);
    EXPECT_GT(p.shared_fare, 0.0);
  }
  // Money conservation: fares collected == driver income.
  double collected = s.passengers[0].shared_fare + s.passengers[1].shared_fare;
  EXPECT_NEAR(collected, s.driver_income, 1e-9);
  // Driver earns more than the plain route fare.
  EXPECT_GT(s.driver_income, f_route);
}

TEST(SettleEpisodeTest, LargerDetourGetsLargerCompensation) {
  std::vector<EpisodePassenger> riders = {{1, 6000.0, 6000.0},   // no detour
                                          {2, 6000.0, 9000.0}};  // 50% detour
  EpisodeSettlement s = SettleEpisode(riders, 9000.0);
  ASSERT_TRUE(s.benefit > 0.0);
  double saving_1 = s.passengers[0].regular_fare - s.passengers[0].shared_fare;
  double saving_2 = s.passengers[1].regular_fare - s.passengers[1].shared_fare;
  EXPECT_GT(saving_2, saving_1);
  // Base rate eta ensures the zero-detour rider still gains.
  EXPECT_GT(saving_1, 0.0);
}

TEST(SettleEpisodeTest, DetourRatesFollowEquationSix) {
  std::vector<EpisodePassenger> riders = {{1, 4000.0, 5000.0}};
  EpisodeSettlement s = SettleEpisode(riders, 5000.0);
  EXPECT_NEAR(s.passengers[0].detour_rate, 0.01 + 1000.0 / 4000.0, 1e-12);
}

TEST(SettleEpisodeTest, BetaSplitsBenefit) {
  std::vector<EpisodePassenger> riders = {{1, 6000.0, 6500.0},
                                          {2, 6000.0, 6500.0}};
  EpisodeSettlement s = SettleEpisode(riders, 7000.0);
  ASSERT_GT(s.benefit, 0.0);
  double passenger_savings = 0.0;
  for (const auto& p : s.passengers) {
    passenger_savings += p.regular_fare - p.shared_fare;
  }
  EXPECT_NEAR(passenger_savings, kPaymentBeta * s.benefit, 1e-9);
  EXPECT_NEAR(s.driver_income - s.ridesharing_fare,
              (1.0 - kPaymentBeta) * s.benefit, 1e-9);
}

TEST(SettleEpisodeTest, NegativeBenefitClampedNoLoss) {
  // Single rider on a long probabilistic detour: driven 9 km vs 5 km direct.
  std::vector<EpisodePassenger> riders = {{1, 5000.0, 9000.0}};
  EpisodeSettlement s = SettleEpisode(riders, 9000.0);
  EXPECT_DOUBLE_EQ(s.benefit, 0.0);
  EXPECT_DOUBLE_EQ(s.passengers[0].shared_fare, s.passengers[0].regular_fare);
}

TEST(SettleEpisodeTest, EqualDetoursSplitEqually) {
  std::vector<EpisodePassenger> riders = {{1, 6000.0, 7200.0},
                                          {2, 6000.0, 7200.0}};
  EpisodeSettlement s = SettleEpisode(riders, 8000.0);
  ASSERT_GT(s.benefit, 0.0);
  EXPECT_NEAR(s.passengers[0].shared_fare, s.passengers[1].shared_fare, 1e-9);
}

TEST(SettleEpisodeTest, NumericJitterDetourClamped) {
  // traveled marginally below direct due to rounding: sigma stays at eta.
  std::vector<EpisodePassenger> riders = {{1, 5000.0, 4999.9999}};
  EpisodeSettlement s = SettleEpisode(riders, 5000.0);
  EXPECT_NEAR(s.passengers[0].detour_rate, kPaymentEta, 1e-9);
}

}  // namespace
}  // namespace mtshare
