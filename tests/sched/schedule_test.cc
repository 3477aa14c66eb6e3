#include "sched/schedule.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "graph/graph_generators.h"
#include "routing/distance_oracle.h"

namespace mtshare {
namespace {

// All tests use a straight-line cost function on vertex ids scaled by 10s
// per unit unless a real network is needed.
Seconds LineCost(VertexId a, VertexId b) { return std::abs(a - b) * 10.0; }

RideRequest MakeRequest(RequestId id, VertexId o, VertexId d, Seconds t,
                        double rho = 1.5, int32_t pax = 1) {
  RideRequest r;
  r.id = id;
  r.origin = o;
  r.destination = d;
  r.release_time = t;
  r.direct_cost = LineCost(o, d);
  r.deadline = t + rho * r.direct_cost;
  r.passengers = pax;
  return r;
}

TEST(ScheduleTest, WithInsertionPlacesEventsInOrder) {
  RideRequest r1 = MakeRequest(1, 2, 8, 0.0);
  Schedule base;
  Schedule s = Schedule::WithInsertion(base, r1, 0, 0);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.at(0).is_pickup);
  EXPECT_EQ(s.at(0).vertex, 2);
  EXPECT_FALSE(s.at(1).is_pickup);
  EXPECT_EQ(s.at(1).vertex, 8);

  RideRequest r2 = MakeRequest(2, 3, 6, 0.0);
  Schedule s2 = Schedule::WithInsertion(s, r2, 1, 1);
  ASSERT_EQ(s2.size(), 4u);
  EXPECT_EQ(s2.at(0).request, 1);
  EXPECT_EQ(s2.at(1).request, 2);
  EXPECT_TRUE(s2.at(1).is_pickup);
  EXPECT_EQ(s2.at(2).request, 2);
  EXPECT_FALSE(s2.at(2).is_pickup);
  EXPECT_EQ(s2.at(3).request, 1);
}

TEST(ScheduleTest, PopFrontAndEraseRequest) {
  RideRequest r1 = MakeRequest(1, 2, 8, 0.0);
  RideRequest r2 = MakeRequest(2, 3, 6, 0.0);
  Schedule s = Schedule::WithInsertion(Schedule(), r1, 0, 0);
  s = Schedule::WithInsertion(s, r2, 1, 1);
  s.PopFront();
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.at(0).request, 2);
  EXPECT_TRUE(s.at(0).is_pickup);
  // Draining every event resets the schedule.
  while (!s.empty()) s.PopFront();
  EXPECT_EQ(s.size(), 0u);
}

TEST(CheckScheduleTest, FeasibleWalkComputesTimes) {
  RideRequest r = MakeRequest(1, 2, 8, 0.0);
  Schedule s = Schedule::WithInsertion(Schedule(), r, 0, 0);
  ScheduleCheck c = CheckSchedule(s, 0, 0.0, 0, 3, LineCost);
  ASSERT_TRUE(c.feasible);
  EXPECT_DOUBLE_EQ(c.total_travel, 20.0 + 60.0);
}

TEST(CheckScheduleTest, DeadlineViolationInfeasible) {
  RideRequest r = MakeRequest(1, 2, 8, 0.0, 1.1);  // tight deadline: 66s
  Schedule s = Schedule::WithInsertion(Schedule(), r, 0, 0);
  // Start far away: pickup at t=100 > pickup deadline.
  ScheduleCheck c = CheckSchedule(s, 12, 0.0, 0, 3, LineCost);
  EXPECT_FALSE(c.feasible);
}

TEST(CheckScheduleTest, CapacityViolationInfeasible) {
  RideRequest r = MakeRequest(1, 2, 8, 0.0, 2.0, 3);
  Schedule s = Schedule::WithInsertion(Schedule(), r, 0, 0);
  ScheduleCheck c = CheckSchedule(s, 2, 0.0, 1, 3, LineCost);  // 1+3 > 3
  EXPECT_FALSE(c.feasible);
}

TEST(CheckScheduleTest, StartOverCapacityInfeasible) {
  Schedule s;
  ScheduleCheck c = CheckSchedule(s, 0, 0.0, 4, 3, LineCost);
  EXPECT_FALSE(c.feasible);
}

TEST(CheckScheduleTest, EmptyScheduleTriviallyFeasible) {
  Schedule s;
  ScheduleCheck c = CheckSchedule(s, 5, 7.0, 0, 3, LineCost);
  EXPECT_TRUE(c.feasible);
  EXPECT_DOUBLE_EQ(c.total_travel, 0.0);
}

TEST(FindBestInsertionTest, EmptyScheduleTakesDirectRoute) {
  RideRequest r = MakeRequest(1, 2, 8, 0.0);
  InsertionResult ins =
      FindBestInsertion(Schedule(), r, 0, 0.0, 0, 3, LineCost);
  ASSERT_TRUE(ins.found);
  EXPECT_EQ(ins.pickup_pos, 0u);
  EXPECT_EQ(ins.dropoff_pos, 0u);
  EXPECT_DOUBLE_EQ(ins.detour, 80.0);
}

TEST(FindBestInsertionTest, PrefersCheapestPosition) {
  // Base: serve request A from 0 to 10. New request B from 4 to 6 lies on
  // the way; inserting inside costs nothing extra.
  RideRequest a = MakeRequest(1, 0, 10, 0.0, 2.0);
  Schedule base = Schedule::WithInsertion(Schedule(), a, 0, 0);
  // Generous rho: B's pickup deadline must cover the 40 s drive to vertex 4.
  RideRequest b = MakeRequest(2, 4, 6, 0.0, 4.0);
  InsertionResult ins = FindBestInsertion(base, b, 0, 0.0, 0, 3, LineCost);
  ASSERT_TRUE(ins.found);
  EXPECT_NEAR(ins.detour, 0.0, 1e-9);
  EXPECT_EQ(ins.pickup_pos, 1u);  // after A's pickup
  EXPECT_EQ(ins.dropoff_pos, 1u);
}

TEST(FindBestInsertionTest, RespectsCapacityAcrossSegments) {
  RideRequest a = MakeRequest(1, 0, 10, 0.0, 2.0, 2);
  Schedule base = Schedule::WithInsertion(Schedule(), a, 0, 0);
  // Capacity 2: B (1 pax) cannot ride between A's pickup and dropoff.
  RideRequest b = MakeRequest(2, 4, 6, 0.0, 10.0);
  InsertionResult ins = FindBestInsertion(base, b, 0, 0.0, 0, 2, LineCost);
  ASSERT_TRUE(ins.found);
  // Only feasible placement: after A is dropped (pickup_pos == 2).
  EXPECT_EQ(ins.pickup_pos, 2u);
}

TEST(FindBestInsertionTest, InfeasibleWhenDeadlinesTight) {
  RideRequest a = MakeRequest(1, 0, 10, 0.0, 1.05);
  Schedule base = Schedule::WithInsertion(Schedule(), a, 0, 0);
  // B would detour A beyond its 5% slack.
  RideRequest b = MakeRequest(2, 20, 30, 0.0, 1.05);
  InsertionResult ins = FindBestInsertion(base, b, 0, 0.0, 0, 3, LineCost);
  EXPECT_FALSE(ins.found);
}

TEST(FindBestInsertionTest, InfeasibleBaseScheduleFails) {
  RideRequest a = MakeRequest(1, 2, 8, 0.0, 1.1);
  Schedule base = Schedule::WithInsertion(Schedule(), a, 0, 0);
  RideRequest b = MakeRequest(2, 3, 7, 0.0, 2.0);
  // Taxi too far to honor A at all: base walk infeasible.
  InsertionResult ins = FindBestInsertion(base, b, 40, 0.0, 0, 3, LineCost);
  EXPECT_FALSE(ins.found);
}

// ------- DP variant: equivalence with the exhaustive search -------

class InsertionDpEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(InsertionDpEquivalence, MatchesNaiveOnRandomInstances) {
  Rng rng(1000 + GetParam());
  GridCityOptions gopt;
  gopt.rows = 10;
  gopt.cols = 10;
  gopt.seed = 5;
  RoadNetwork net = MakeGridCity(gopt);
  DistanceOracle oracle(net);
  LegCostFn cost = [&](VertexId a, VertexId b) { return oracle.Cost(a, b); };

  auto random_vertex = [&]() {
    return VertexId(rng.NextInt(0, net.num_vertices() - 1));
  };
  auto random_request = [&](RequestId id, Seconds now) {
    RideRequest r;
    r.id = id;
    r.release_time = now;
    r.origin = random_vertex();
    do {
      r.destination = random_vertex();
    } while (r.destination == r.origin);
    r.direct_cost = oracle.Cost(r.origin, r.destination);
    r.deadline = now + rng.NextUniform(1.2, 2.2) * r.direct_cost;
    r.passengers = int32_t(rng.NextInt(1, 2));
    return r;
  };

  // Build a base schedule by inserting a few requests greedily.
  VertexId taxi_loc = random_vertex();
  int32_t capacity = 4;
  Schedule base;
  for (int k = 0; k < 3; ++k) {
    RideRequest r = random_request(k, 0.0);
    InsertionResult ins =
        FindBestInsertion(base, r, taxi_loc, 0.0, 0, capacity, cost);
    if (ins.found) base = ins.schedule;
  }

  for (int trial = 0; trial < 10; ++trial) {
    RideRequest r = random_request(100 + trial, 0.0);
    InsertionResult naive =
        FindBestInsertion(base, r, taxi_loc, 0.0, 0, capacity, cost);
    InsertionResult dp =
        FindBestInsertionDp(base, r, taxi_loc, 0.0, 0, capacity, cost);
    ASSERT_EQ(naive.found, dp.found) << "trial " << trial;
    if (naive.found) {
      EXPECT_NEAR(naive.detour, dp.detour, 1e-6) << "trial " << trial;
      EXPECT_TRUE(dp.check.feasible);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, InsertionDpEquivalence,
                         ::testing::Range(0, 8));

// ------- Slot masks (the detour-ellipse screen's output contract) -------

class InsertionMaskEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(InsertionMaskEquivalence, MaskedSearchesAgreeOnRandomInstances) {
  Rng rng(7000 + GetParam());
  GridCityOptions gopt;
  gopt.rows = 10;
  gopt.cols = 10;
  gopt.seed = 5;
  RoadNetwork net = MakeGridCity(gopt);
  DistanceOracle oracle(net);
  LegCostFn cost = [&](VertexId a, VertexId b) { return oracle.Cost(a, b); };

  auto random_vertex = [&]() {
    return VertexId(rng.NextInt(0, net.num_vertices() - 1));
  };
  auto random_request = [&](RequestId id) {
    RideRequest r;
    r.id = id;
    r.release_time = 0.0;
    r.origin = random_vertex();
    do {
      r.destination = random_vertex();
    } while (r.destination == r.origin);
    r.direct_cost = oracle.Cost(r.origin, r.destination);
    r.deadline = rng.NextUniform(1.2, 2.2) * r.direct_cost;
    r.passengers = int32_t(rng.NextInt(1, 2));
    return r;
  };

  VertexId taxi_loc = random_vertex();
  int32_t capacity = 4;
  Schedule base;
  for (int k = 0; k < 3; ++k) {
    RideRequest r = random_request(k);
    InsertionResult ins =
        FindBestInsertion(base, r, taxi_loc, 0.0, 0, capacity, cost);
    if (ins.found) base = ins.schedule;
  }
  const size_t m = base.size();

  for (int trial = 0; trial < 10; ++trial) {
    RideRequest r = random_request(100 + trial);
    InsertionResult unmasked =
        FindBestInsertion(base, r, taxi_loc, 0.0, 0, capacity, cost);

    // All-ones mask == no mask, for both searches.
    InsertionSlotMask ones;
    ones.pickup.assign(m + 1, 1);
    ones.dropoff.assign(m + 1, 1);
    InsertionResult with_ones =
        FindBestInsertion(base, r, taxi_loc, 0.0, 0, capacity, cost, &ones);
    InsertionResult dp_ones =
        FindBestInsertionDp(base, r, taxi_loc, 0.0, 0, capacity, cost, &ones);
    EXPECT_EQ(with_ones.found, unmasked.found);
    EXPECT_EQ(dp_ones.found, unmasked.found);
    if (unmasked.found) {
      EXPECT_EQ(with_ones.pickup_pos, unmasked.pickup_pos);
      EXPECT_EQ(with_ones.dropoff_pos, unmasked.dropoff_pos);
      EXPECT_DOUBLE_EQ(with_ones.detour, unmasked.detour);
      EXPECT_NEAR(dp_ones.detour, unmasked.detour, 1e-6);
    }

    // Random mask: DP and exhaustive search must agree with each other
    // on the restricted slot set (this is what licenses the DP to take
    // the ellipse screen's masks).
    InsertionSlotMask random_mask;
    random_mask.pickup.assign(m + 1, 0);
    random_mask.dropoff.assign(m + 1, 0);
    for (size_t i = 0; i <= m; ++i) {
      random_mask.pickup[i] = rng.NextInt(0, 1) != 0;
      random_mask.dropoff[i] = rng.NextInt(0, 1) != 0;
    }
    InsertionResult naive = FindBestInsertion(base, r, taxi_loc, 0.0, 0,
                                              capacity, cost, &random_mask);
    InsertionResult dp = FindBestInsertionDp(base, r, taxi_loc, 0.0, 0,
                                             capacity, cost, &random_mask);
    ASSERT_EQ(naive.found, dp.found) << "trial " << trial;
    if (naive.found) {
      EXPECT_NEAR(naive.detour, dp.detour, 1e-6) << "trial " << trial;
      EXPECT_TRUE(dp.check.feasible);
      // The masked winner honors the mask.
      EXPECT_TRUE(random_mask.pickup[naive.pickup_pos]);
      EXPECT_TRUE(random_mask.dropoff[naive.dropoff_pos]);
      // A masked search can never beat the unmasked optimum.
      ASSERT_TRUE(unmasked.found);
      EXPECT_GE(naive.detour, unmasked.detour - 1e-9);
    }

    // A mask that keeps the unmasked winner's slots (clearing others at
    // random) must return exactly the unmasked optimum — the producer
    // contract: clearing only non-optimal slots never changes the result.
    if (unmasked.found) {
      InsertionSlotMask keep = random_mask;
      keep.pickup[unmasked.pickup_pos] = 1;
      keep.dropoff[unmasked.dropoff_pos] = 1;
      InsertionResult kept = FindBestInsertionDp(base, r, taxi_loc, 0.0, 0,
                                                 capacity, cost, &keep);
      ASSERT_TRUE(kept.found);
      EXPECT_NEAR(kept.detour, unmasked.detour, 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, InsertionMaskEquivalence,
                         ::testing::Range(0, 8));

TEST(InsertionMaskTest, AllZeroMaskFindsNothing) {
  RideRequest b = MakeRequest(2, 4, 6, 0.0, 10.0);
  InsertionSlotMask zeros;
  zeros.pickup.assign(1, 0);
  zeros.dropoff.assign(1, 0);
  EXPECT_FALSE(
      FindBestInsertion(Schedule(), b, 0, 0.0, 0, 3, LineCost, &zeros).found);
  EXPECT_FALSE(
      FindBestInsertionDp(Schedule(), b, 0, 0.0, 0, 3, LineCost, &zeros)
          .found);
}

TEST(FindBestInsertionDpTest, OnboardPassengersRestrictCapacity) {
  RideRequest b = MakeRequest(2, 4, 6, 0.0, 10.0, 2);
  // Taxi already carries 2 of 3 seats: a 2-passenger party cannot fit.
  InsertionResult dp =
      FindBestInsertionDp(Schedule(), b, 0, 0.0, 2, 3, LineCost);
  EXPECT_FALSE(dp.found);
}

TEST(FindBestInsertionDpTest, AppendAtEndWhenMidRouteFull) {
  RideRequest a = MakeRequest(1, 0, 10, 0.0, 3.0, 3);
  Schedule base = Schedule::WithInsertion(Schedule(), a, 0, 0);
  // rho 10: pickup deadline covers waiting for A's dropoff at t=100.
  RideRequest b = MakeRequest(2, 12, 16, 0.0, 10.0, 2);
  InsertionResult dp = FindBestInsertionDp(base, b, 0, 0.0, 0, 3, LineCost);
  ASSERT_TRUE(dp.found);
  EXPECT_EQ(dp.pickup_pos, 2u);
  EXPECT_EQ(dp.dropoff_pos, 2u);
}

TEST(FindBestInsertionDpTest, FallsBackToTheWalkAtAnUlpDeadline) {
  // Non-dyadic leg costs, so the DP's algebraic arrival sum and the closing
  // CheckSchedule walk, which add the same legs in different orders, can
  // disagree. A seeded search found this case: the rider's deadline is the
  // DP's sum for pickup before and dropoff after the taxi's one stop v,
  // which the walk misses by an ulp. The DP must defer to
  // FindBestInsertion, whose winner (pickup and dropoff before v) is
  // walk-feasible.
  constexpr VertexId kL = 0, kO = 1, kD = 2, kV = 3;
  const Seconds cost[4][4] = {
      // to: L      o      d      v
      {0.0, 119.3, 150.0, 190.1},  // from L, the taxi's location
      {119.3, 0.0, 115.3, 89.4},   // from o
      {150.0, 115.3, 0.0, 100.7},  // from d
      {190.1, 95.1, 73.2, 0.0},    // from v
  };
  const LegCostFn leg = [&](VertexId a, VertexId b) { return cost[a][b]; };
  const Seconds now = 29572.7;
  Schedule base;  // the dropoff of the one rider aboard
  base.Append(ScheduleEvent{1, kV, false, 1e6, 1});
  RideRequest r;
  r.id = 2;
  r.origin = kO;
  r.destination = kD;
  r.release_time = now;
  r.direct_cost = cost[kO][kD];
  r.passengers = 1;
  // The DP's arrival at d: arr[0] + d1 + leg(v, d).
  const Seconds arr0 = now + cost[kL][kV];
  const Seconds d1 = cost[kL][kO] + cost[kO][kV] - cost[kL][kV];
  r.deadline = arr0 + d1 + cost[kV][kD];
  ASSERT_FALSE(CheckSchedule(Schedule::WithInsertion(base, r, 0, 1), kL, now,
                             1, 3, leg)
                   .feasible);

  const InsertionResult walk = FindBestInsertion(base, r, kL, now, 1, 3, leg);
  const InsertionResult dp = FindBestInsertionDp(base, r, kL, now, 1, 3, leg);
  ASSERT_TRUE(walk.found);
  ASSERT_TRUE(dp.found);
  EXPECT_TRUE(dp.check.feasible);
  EXPECT_EQ(walk.pickup_pos, 0u);
  EXPECT_EQ(walk.dropoff_pos, 0u);
  EXPECT_EQ(dp.pickup_pos, walk.pickup_pos);
  EXPECT_EQ(dp.dropoff_pos, walk.dropoff_pos);
  EXPECT_EQ(dp.detour, walk.detour);
}

}  // namespace
}  // namespace mtshare
