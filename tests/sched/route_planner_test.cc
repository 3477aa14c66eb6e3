#include "sched/route_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/random.h"
#include "graph/graph_generators.h"
#include "partition/bipartite_partitioner.h"

namespace mtshare {
namespace {

class RoutePlannerTest : public ::testing::Test {
 protected:
  RoutePlannerTest() {
    GridCityOptions opt;
    opt.rows = 16;
    opt.cols = 16;
    opt.seed = 13;
    net_ = MakeGridCity(opt);
    partitioning_ = GridPartition(net_, 16);
    lg_ = std::make_unique<LandmarkGraph>(net_, partitioning_);
    oracle_ = std::make_unique<DistanceOracle>(net_);

    // Simple history: every vertex sends trips toward the max-x edge so
    // the east side carries encounter mass.
    VertexId east = 0;
    for (VertexId v = 0; v < net_.num_vertices(); ++v) {
      if (net_.coord(v).x > net_.coord(east).x) east = v;
    }
    std::vector<OdPair> trips;
    Rng rng(3);
    for (VertexId v = 0; v < net_.num_vertices(); ++v) {
      if (v != east) trips.emplace_back(v, east);
    }
    transitions_ = TransitionModel::Build(
        net_.num_vertices(), partitioning_.num_partitions(),
        partitioning_.vertex_partition, trips);
    planner_ = std::make_unique<RoutePlanner>(
        net_, partitioning_, *lg_, &transitions_, oracle_.get(),
        RoutePlannerOptions{});
  }

  RideRequest MakeRequest(VertexId o, VertexId d, Seconds t, double rho) {
    RideRequest r;
    r.id = 0;
    r.origin = o;
    r.destination = d;
    r.release_time = t;
    r.direct_cost = oracle_->Cost(o, d);
    r.deadline = t + rho * r.direct_cost;
    return r;
  }

  RoadNetwork net_;
  MapPartitioning partitioning_;
  std::unique_ptr<LandmarkGraph> lg_;
  std::unique_ptr<DistanceOracle> oracle_;
  TransitionModel transitions_;
  std::unique_ptr<RoutePlanner> planner_;
};

TEST_F(RoutePlannerTest, BasicLegNearShortestPathCost) {
  // Partition filtering trades exact optimality for pruning: the filtered
  // leg can exceed the true shortest path when the optimum weaves through
  // direction-rule-pruned partitions, but must stay within a modest
  // stretch and usually matches exactly.
  DijkstraSearch reference(net_);
  Rng rng(7);
  int exact = 0;
  const int trials = 40;
  for (int i = 0; i < trials; ++i) {
    VertexId a = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    VertexId b = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    Path leg = planner_->PlanBasicLeg(a, b);
    ASSERT_TRUE(leg.valid) << a << "->" << b;
    Seconds optimum = reference.Cost(a, b);
    EXPECT_GE(leg.cost, optimum - 1e-9) << a << "->" << b;
    // Cost-rule slack bound: stretch stays within (1 + epsilon) = 2.
    EXPECT_LE(leg.cost, optimum * 2.0 + 1e-9) << a << "->" << b;
    if (std::abs(leg.cost - optimum) < 1e-9) ++exact;
  }
  EXPECT_GE(exact, trials / 2);
}

TEST_F(RoutePlannerTest, BasicLegTrivialForSameVertex) {
  Path leg = planner_->PlanBasicLeg(5, 5);
  ASSERT_TRUE(leg.valid);
  EXPECT_DOUBLE_EQ(leg.cost, 0.0);
}

TEST_F(RoutePlannerTest, PlanRouteEmptyScheduleValid) {
  auto planned = planner_->PlanRoute(3, 100.0, Schedule());
  EXPECT_TRUE(planned.valid);
  EXPECT_TRUE(planned.event_arrivals.empty());
}

TEST_F(RoutePlannerTest, PlanRouteArrivalsMonotoneAndDeadlineSafe) {
  RideRequest r = MakeRequest(0, net_.num_vertices() - 1, 0.0, 1.6);
  Schedule s = Schedule::WithInsertion(Schedule(), r, 0, 0);
  auto planned = planner_->PlanRoute(10, 0.0, s);
  ASSERT_TRUE(planned.valid);
  ASSERT_EQ(planned.event_arrivals.size(), 2u);
  EXPECT_LE(planned.event_arrivals[0], planned.event_arrivals[1]);
  EXPECT_LE(planned.event_arrivals[1], r.deadline + 1e-9);
  // The route's vertices trace pickup then dropoff.
  EXPECT_EQ(planned.path.front(), 10);
  EXPECT_EQ(planned.path.back(), r.destination);
}

TEST_F(RoutePlannerTest, PlanRouteRejectsImpossibleDeadline) {
  RideRequest r = MakeRequest(0, net_.num_vertices() - 1, 0.0, 1.2);
  Schedule s = Schedule::WithInsertion(Schedule(), r, 0, 0);
  // Taxi starts at the far corner: approach alone blows the slack.
  auto planned = planner_->PlanRoute(net_.num_vertices() - 1, 0.0, s);
  EXPECT_FALSE(planned.valid);
}

TEST_F(RoutePlannerTest, EncounterMassHigherTowardTripSinks) {
  // Taxi heading east (all trips end east): east-side partitions must have
  // positive mass.
  Point east_dir{1000.0, 0.0};
  double max_mass = 0.0;
  for (PartitionId p = 0; p < partitioning_.num_partitions(); ++p) {
    max_mass = std::max(max_mass,
                        planner_->PartitionEncounterMass(p, east_dir));
  }
  EXPECT_GT(max_mass, 0.0);
}

TEST_F(RoutePlannerTest, ProbabilisticLegRespectsBudget) {
  DijkstraSearch reference(net_);
  VertexId a = 0;
  VertexId b = net_.num_vertices() - 1;
  Seconds shortest = reference.Cost(a, b);
  Point dir{net_.coord(b).x - net_.coord(a).x,
            net_.coord(b).y - net_.coord(a).y};
  Path leg = planner_->PlanProbabilisticLeg(a, b, dir, shortest * 1.5);
  if (leg.valid) {
    EXPECT_LE(leg.cost, shortest * 1.5 + 1e-9);
    EXPECT_GE(leg.cost, shortest - 1e-9);
    EXPECT_EQ(leg.front(), a);
    EXPECT_EQ(leg.back(), b);
  }
  // With a generous budget a valid leg must exist.
  Path generous = planner_->PlanProbabilisticLeg(a, b, dir, shortest * 10.0);
  EXPECT_TRUE(generous.valid);
}

TEST_F(RoutePlannerTest, ProbabilisticFailsOnImpossibleBudget) {
  VertexId a = 0;
  VertexId b = net_.num_vertices() - 1;
  Point dir{1.0, 1.0};
  Path leg = planner_->PlanProbabilisticLeg(a, b, dir, 1.0 /*one second*/);
  EXPECT_FALSE(leg.valid);
  EXPECT_GT(planner_->stats().prob_fallbacks, 0);
}

TEST_F(RoutePlannerTest, ProbabilisticRouteFollowsMass) {
  // With slack, the probabilistic leg should accumulate at least as much
  // per-vertex encounter mass as the shortest path does.
  DijkstraSearch reference(net_);
  VertexId a = 0;
  VertexId b = net_.num_vertices() - 1;
  Point dir{net_.coord(b).x - net_.coord(a).x,
            net_.coord(b).y - net_.coord(a).y};
  Path shortest = reference.FindPath(a, b);
  Path prob = planner_->PlanProbabilisticLeg(a, b, dir, shortest.cost * 2.0);
  ASSERT_TRUE(prob.valid);

  auto mass_of = [&](const Path& p) {
    double acc = 0.0;
    for (VertexId v : p.vertices) {
      PartitionId part = partitioning_.PartitionOf(v);
      acc += planner_->PartitionEncounterMass(part, dir) /
             std::max<size_t>(1, partitioning_.partition_vertices[part].size());
    }
    return acc;
  };
  EXPECT_GE(mass_of(prob), mass_of(shortest) * 0.8);
}

TEST_F(RoutePlannerTest, ProbPlanRouteFallsBackAndStaysFeasible) {
  RideRequest r = MakeRequest(0, net_.num_vertices() - 1, 0.0, 1.25);
  Schedule s = Schedule::WithInsertion(Schedule(), r, 0, 0);
  Point dir{1.0, 0.0};
  auto planned = planner_->PlanRoute(0, 0.0, s, dir);
  ASSERT_TRUE(planned.valid);
  EXPECT_LE(planned.event_arrivals[1], r.deadline + 1e-9);
}

TEST_F(RoutePlannerTest, LegCountersAdvance) {
  int64_t b0 = planner_->stats().basic_legs;
  planner_->PlanBasicLeg(0, 20);
  EXPECT_EQ(planner_->stats().basic_legs, b0 + 1);
  const RoutePlannerStats before = planner_->stats();
  planner_->PlanProbabilisticLeg(0, 20, Point{1, 0}, 1e9);
  EXPECT_EQ(planner_->stats().prob_legs, before.prob_legs + 1);
  // 0 and 20 lie in different partitions, so the leg enumerates paths and
  // runs at least one weighted search.
  ASSERT_NE(partitioning_.PartitionOf(0), partitioning_.PartitionOf(20));
  EXPECT_GT(planner_->stats().enumeration_frames, before.enumeration_frames);
  EXPECT_GT(planner_->stats().prob_attempts, before.prob_attempts);
  EXPECT_LE(planner_->stats().prob_attempts,
            before.prob_attempts + RoutePlanner::kMaxAttempts);
}

TEST_F(RoutePlannerTest, DirectionFreeMassIsTheDirectSum) {
  // The precomputed direction-free mass must carry the bits of the sum it
  // replaced: partition transition mass accumulated over member vertices
  // in vertex order, then summed over every other partition in order.
  const int32_t k = partitioning_.num_partitions();
  std::vector<double> partition_transition(static_cast<size_t>(k) * k, 0.0);
  for (VertexId v = 0; v < net_.num_vertices(); ++v) {
    PartitionId p = partitioning_.PartitionOf(v);
    for (int32_t q = 0; q < k; ++q) {
      partition_transition[static_cast<size_t>(p) * k + q] +=
          transitions_.Probability(v, q);
    }
  }
  for (PartitionId p = 0; p < k; ++p) {
    double direct = 0.0;
    for (PartitionId q = 0; q < k; ++q) {
      if (q == p) continue;
      direct += partition_transition[static_cast<size_t>(p) * k + q];
    }
    EXPECT_EQ(planner_->PartitionEncounterMass(p, Point{0, 0}), direct) << p;
  }
}

TEST_F(RoutePlannerTest, WarmedPlannerMatchesFreshPlanner) {
  // The vertex-weight memo fills as legs run; a planner warmed by other
  // legs (directional and direction-free) must plan every leg exactly as
  // a fresh planner does.
  struct Leg {
    VertexId from;
    VertexId to;
    Point direction;
    Seconds budget;
  };
  const std::vector<Point> directions = {
      {0, 0}, {1, 0}, {0, 1}, {-1, 0.5}, {3, -2}, {-1, -1}};
  const std::vector<double> stretches = {1.1, 1.5, 3.0};
  std::vector<Leg> legs;
  Rng rng(29);
  while (legs.size() < 60) {
    VertexId a = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    VertexId b = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    if (a == b) continue;
    Point dir = directions[rng.NextInt(0, directions.size() - 1)];
    if (legs.size() % 4 == 0) {
      dir = Point{net_.coord(b).x - net_.coord(a).x,
                  net_.coord(b).y - net_.coord(a).y};
    }
    double stretch = stretches[rng.NextInt(0, stretches.size() - 1)];
    legs.push_back({a, b, dir, oracle_->Cost(a, b) * stretch});
  }
  // Repeat every leg once so the warmed planner also meets its own sets.
  const std::vector<Leg> first_pass = legs;
  legs.insert(legs.end(), first_pass.begin(), first_pass.end());
  rng.Shuffle(legs);

  int32_t valid = 0;
  for (const Leg& leg : legs) {
    RoutePlanner fresh(net_, partitioning_, *lg_, &transitions_,
                       oracle_.get(), RoutePlannerOptions{});
    Path want =
        fresh.PlanProbabilisticLeg(leg.from, leg.to, leg.direction, leg.budget);
    Path got = planner_->PlanProbabilisticLeg(leg.from, leg.to, leg.direction,
                                              leg.budget);
    ASSERT_EQ(got.valid, want.valid) << leg.from << "->" << leg.to;
    EXPECT_EQ(got.vertices, want.vertices) << leg.from << "->" << leg.to;
    EXPECT_EQ(got.cost, want.cost) << leg.from << "->" << leg.to;
    if (want.valid) ++valid;
  }
  EXPECT_GT(valid, static_cast<int32_t>(legs.size()) / 2);
}

TEST(RoutePlannerRetryTest, UnfilteredRetryIsFindPathBitForBit) {
  // A bipartite partitioning fragments partitions, so the filtered
  // subgraph often disconnects a leg, and PlanBasicLeg retries it
  // unrestricted: walked through the start's resident exact-table row when
  // there is one, searched otherwise (always on a CH oracle). Every retry
  // must return FindPath's vertices and cost bit for bit.
  GridCityOptions opt;
  opt.rows = 18;
  opt.cols = 18;
  opt.one_way_fraction = 0.2;
  opt.seed = 53;
  const RoadNetwork net = MakeGridCity(opt);
  Rng rng(59);
  std::vector<OdPair> trips;
  for (int i = 0; i < 4000; ++i) {
    trips.emplace_back(VertexId(rng.NextInt(0, net.num_vertices() - 1)),
                       VertexId(rng.NextInt(0, net.num_vertices() - 1)));
  }
  BipartiteOptions bopt;
  bopt.kappa = 36;
  bopt.kt = 8;
  const MapPartitioning parts = BipartitePartition(net, trips, bopt);
  const LandmarkGraph lg(net, parts);
  DijkstraSearch reference(net);
  for (const OracleBackend backend :
       {OracleBackend::kExact, OracleBackend::kCh}) {
    OracleOptions oopt;
    oopt.backend = backend;
    DistanceOracle oracle(net, oopt);
    RoutePlanner planner(net, parts, lg, nullptr, &oracle,
                         RoutePlannerOptions{});
    int64_t with_row = 0;
    int64_t without_row = 0;
    for (int i = 0; i < 400; ++i) {
      const VertexId a = VertexId(rng.NextInt(0, net.num_vertices() - 1));
      const VertexId b = VertexId(rng.NextInt(0, net.num_vertices() - 1));
      if (a == b) continue;
      // Every other leg fills its start's row first (on the exact table).
      if (i % 2 == 0) oracle.Cost(a, b);
      const bool resident = oracle.ResidentRow(a) != nullptr;
      const RoutePlannerStats before = planner.stats();
      const Path got = planner.PlanBasicLeg(a, b);
      const RoutePlannerStats& after = planner.stats();
      if (after.basic_no_path == before.basic_no_path) continue;
      const Path want = reference.FindPath(a, b);
      ASSERT_EQ(got.valid, want.valid) << a << "->" << b;
      EXPECT_EQ(got.vertices, want.vertices) << a << "->" << b;
      EXPECT_EQ(got.cost, want.cost) << a << "->" << b;
      const ShortestLegCounts& c0 = before.basic_no_path_legs;
      const ShortestLegCounts& c1 = after.basic_no_path_legs;
      if (resident) {
        ++with_row;
        EXPECT_EQ(c1.walked + c1.prefixed, c0.walked + c0.prefixed + 1);
        EXPECT_EQ(c1.searched, c0.searched);
      } else {
        ++without_row;
        EXPECT_EQ(c1.searched, c0.searched + 1);
      }
    }
    if (backend == OracleBackend::kExact) {
      EXPECT_GT(with_row, 20);
      EXPECT_GT(without_row, 20);
      EXPECT_GT(planner.stats().basic_no_path_legs.walked, 0);
    } else {
      EXPECT_EQ(with_row, 0);
      EXPECT_GT(without_row, 40);
    }
  }
}

// Algorithm 4's landmark-path DFS as it ran before the hop-distance prune:
// every branch is opened up to the hop cap. Reference for the pruned
// EnumerateLandmarkPaths; it lives only here.
std::vector<std::vector<PartitionId>> UnprunedLandmarkPaths(
    const std::vector<std::vector<PartitionId>>& adjacency,
    const std::vector<PartitionId>& kept, const std::vector<double>& mass,
    PartitionId pz, PartitionId pz1, int32_t max_paths, int32_t max_hops,
    int64_t* frames) {
  const size_t n = adjacency.size();
  std::vector<uint8_t> in_kept(n, 0);
  for (PartitionId p : kept) in_kept[p] = 1;
  struct PathAcc {
    std::vector<PartitionId> path;
    double weight;
  };
  std::vector<PathAcc> found;
  std::vector<PartitionId> current;
  std::vector<uint8_t> visited(n, 0);
  struct Frame {
    PartitionId node;
    std::vector<PartitionId> neighbors;
    size_t next = 0;
  };
  auto sorted_neighbors = [&](PartitionId p) {
    std::vector<PartitionId> nbrs;
    for (PartitionId q : adjacency[p]) {
      if (in_kept[q] && !visited[q]) nbrs.push_back(q);
    }
    std::sort(nbrs.begin(), nbrs.end(), [&](PartitionId a, PartitionId b) {
      return mass[a] > mass[b];
    });
    return nbrs;
  };
  std::vector<Frame> stack;
  current.push_back(pz);
  visited[pz] = 1;
  if (pz == pz1) {
    found.push_back({current, mass[pz]});
  } else {
    stack.push_back({pz, sorted_neighbors(pz), 0});
    ++*frames;
    while (!stack.empty() && static_cast<int32_t>(found.size()) < max_paths) {
      Frame& frame = stack.back();
      if (frame.next >= frame.neighbors.size() ||
          static_cast<int32_t>(current.size()) > max_hops) {
        visited[frame.node] = 0;
        current.pop_back();
        stack.pop_back();
        continue;
      }
      PartitionId next = frame.neighbors[frame.next++];
      if (visited[next]) continue;
      current.push_back(next);
      if (next == pz1) {
        double w = 0.0;
        for (PartitionId p : current) w += mass[p];
        found.push_back({current, w});
        current.pop_back();
      } else {
        visited[next] = 1;
        stack.push_back({next, sorted_neighbors(next), 0});
        ++*frames;
      }
    }
  }
  std::stable_sort(found.begin(), found.end(),
                   [](const PathAcc& a, const PathAcc& b) {
                     return a.weight > b.weight;
                   });
  std::vector<std::vector<PartitionId>> out;
  for (PathAcc& acc : found) out.push_back(std::move(acc.path));
  return out;
}

using Adjacency = std::vector<std::vector<PartitionId>>;
using Edges = std::vector<std::pair<PartitionId, PartitionId>>;
using Paths = std::vector<std::vector<PartitionId>>;

/// The paths `scratch` holds after an EnumerateLandmarkPaths call.
Paths PathsOf(const LandmarkPathScratch& scratch) {
  Paths out;
  for (size_t i = 0; i < scratch.num_paths(); ++i) {
    const std::span<const PartitionId> path = scratch.path(i);
    out.emplace_back(path.begin(), path.end());
  }
  return out;
}

/// EnumerateLandmarkPaths keeping every path it finds, on a fresh scratch.
Paths AllLandmarkPaths(const Adjacency& adjacency,
                       const std::vector<PartitionId>& kept,
                       const std::vector<double>& mass, PartitionId pz,
                       PartitionId pz1, int32_t max_paths, int32_t max_hops,
                       int64_t* frames) {
  LandmarkPathScratch scratch;
  const size_t kept_paths =
      EnumerateLandmarkPaths(adjacency, kept, mass, pz, pz1, max_paths,
                             max_hops, SIZE_MAX, &scratch, frames);
  EXPECT_EQ(kept_paths, scratch.num_paths());
  return PathsOf(scratch);
}

Adjacency FromEdges(int32_t n, const Edges& edges) {
  std::vector<std::vector<uint8_t>> matrix(n, std::vector<uint8_t>(n, 0));
  for (auto [a, b] : edges) matrix[a][b] = matrix[b][a] = 1;
  Adjacency adjacency(n);
  for (PartitionId p = 0; p < n; ++p) {
    for (PartitionId q = 0; q < n; ++q) {
      if (matrix[p][q]) adjacency[p].push_back(q);
    }
  }
  return adjacency;
}

Adjacency Line(int32_t n) {
  Edges edges;
  for (PartitionId p = 0; p + 1 < n; ++p) edges.emplace_back(p, p + 1);
  return FromEdges(n, edges);
}

Adjacency Grid(int32_t rows, int32_t cols, double keep, double diagonal,
               Rng& rng) {
  Edges edges;
  for (int32_t r = 0; r < rows; ++r) {
    for (int32_t c = 0; c < cols; ++c) {
      PartitionId p = r * cols + c;
      if (c + 1 < cols && rng.NextDouble() < keep) edges.emplace_back(p, p + 1);
      if (r + 1 < rows && rng.NextDouble() < keep) {
        edges.emplace_back(p, p + cols);
      }
      if (c + 1 < cols && r + 1 < rows && rng.NextDouble() < diagonal) {
        edges.emplace_back(p, p + cols + 1);
      }
    }
  }
  return FromEdges(rows * cols, edges);
}

std::vector<PartitionId> All(int32_t n) {
  std::vector<PartitionId> kept(n);
  for (PartitionId p = 0; p < n; ++p) kept[p] = p;
  return kept;
}

TEST(PartitionPathEnumerationTest, PrunedMatchesUnprunedOnRandomGraphs) {
  // Masses come from small level sets so that neighbour ties (resolved by
  // std::sort) and path-weight ties (resolved by discovery order) occur.
  // Every third trial is dense (degree 17-64, as bipartite landmark graphs
  // are), so kept-neighbour lists pass 16 entries and std::sort takes its
  // introsort path, where ties land in an order only the same input
  // reproduces. Each trial keeps the first max_out paths; one scratch
  // serves every trial, and a fresh one must agree with it.
  const std::vector<std::vector<double>> level_sets = {{0.0, 0.25, 0.5, 1.0},
                                                       {0.5, 1.0}};
  const std::vector<int32_t> path_caps = {1, 3, 64};
  const std::vector<size_t> out_caps = {1, 2, size_t(RoutePlanner::kMaxAttempts),
                                        SIZE_MAX};
  Rng rng(17);
  LandmarkPathScratch shared;
  int64_t pruned_frames = 0;
  int64_t unpruned_frames = 0;
  int32_t with_paths = 0;
  int32_t dense_with_long_lists = 0;
  for (int trial = 0; trial < 450; ++trial) {
    const bool dense = trial % 3 == 2;
    Adjacency adjacency;
    if (dense) {
      const int32_t n = int32_t(rng.NextInt(18, 65));
      const double degree = double(rng.NextInt(17, n - 1));
      Edges edges;
      for (PartitionId a = 0; a < n; ++a) {
        for (PartitionId b = a + 1; b < n; ++b) {
          if (rng.NextDouble() < degree / double(n - 1)) {
            edges.emplace_back(a, b);
          }
        }
      }
      adjacency = FromEdges(n, edges);
    } else if (trial % 2 == 0) {
      adjacency = Grid(int32_t(rng.NextInt(1, 5)), int32_t(rng.NextInt(2, 5)),
                       0.85, 0.15, rng);
    } else {
      const int32_t n = int32_t(rng.NextInt(2, 12));
      const double density = rng.NextUniform(0.15, 0.45);
      Edges edges;
      for (PartitionId a = 0; a < n; ++a) {
        for (PartitionId b = a + 1; b < n; ++b) {
          if (rng.NextDouble() < density) edges.emplace_back(a, b);
        }
      }
      adjacency = FromEdges(n, edges);
    }
    const int32_t n = static_cast<int32_t>(adjacency.size());
    const PartitionId pz = PartitionId(rng.NextInt(0, n - 1));
    const PartitionId pz1 = PartitionId(rng.NextInt(0, n - 1));
    // As PartitionFilter does, kept holds both endpoints; now and then the
    // target is dropped so that it cannot be reached (never on a dense
    // graph, where the unpruned reference would walk every simple path).
    std::vector<PartitionId> kept;
    const double keep = rng.NextUniform(0.5, 1.0);
    for (PartitionId p = 0; p < n; ++p) {
      if (p == pz || (p == pz1 && (dense || trial % 10 != 3)) ||
          rng.NextDouble() < keep) {
        kept.push_back(p);
      }
    }
    rng.Shuffle(kept);
    const std::vector<double>& levels = level_sets[dense ? trial % 2 : 0];
    std::vector<double> mass(n);
    for (double& m : mass) m = levels[rng.NextInt(0, levels.size() - 1)];
    const int32_t max_paths = path_caps[rng.NextInt(0, path_caps.size() - 1)];
    const int32_t max_hops = int32_t(rng.NextInt(1, 10));
    const size_t max_out = out_caps[rng.NextInt(0, out_caps.size() - 1)];
    if (dense) {
      int32_t kept_degree = 0;
      for (PartitionId q : adjacency[pz]) {
        kept_degree += std::count(kept.begin(), kept.end(), q) > 0 ? 1 : 0;
      }
      if (kept_degree > 16) ++dense_with_long_lists;
    }

    int64_t frames = 0;
    int64_t shared_frames = 0;
    int64_t reference_frames = 0;
    LandmarkPathScratch fresh;
    const size_t kept_paths =
        EnumerateLandmarkPaths(adjacency, kept, mass, pz, pz1, max_paths,
                               max_hops, max_out, &fresh, &frames);
    EnumerateLandmarkPaths(adjacency, kept, mass, pz, pz1, max_paths,
                           max_hops, max_out, &shared, &shared_frames);
    Paths want = UnprunedLandmarkPaths(adjacency, kept, mass, pz, pz1,
                                       max_paths, max_hops, &reference_frames);
    if (want.size() > max_out) want.resize(max_out);
    ASSERT_EQ(kept_paths, want.size()) << "trial " << trial;
    ASSERT_EQ(PathsOf(fresh), want) << "trial " << trial;
    ASSERT_EQ(PathsOf(shared), want) << "trial " << trial;
    EXPECT_EQ(shared_frames, frames) << "trial " << trial;
    EXPECT_LE(frames, reference_frames) << "trial " << trial;
    pruned_frames += frames;
    unpruned_frames += reference_frames;
    if (!want.empty()) ++with_paths;
  }
  EXPECT_GT(with_paths, 150);
  EXPECT_GT(dense_with_long_lists, 75);
  EXPECT_LT(pruned_frames, unpruned_frames);
}

TEST(PartitionPathEnumerationTest, PathOfExactlyMaxHopsIsFound) {
  const int32_t max_hops = RoutePlanner::kMaxPathHops;
  const Adjacency line = Line(max_hops + 2);
  const std::vector<PartitionId> kept = All(max_hops + 2);
  const std::vector<double> mass(max_hops + 2, 1.0);
  std::vector<PartitionId> exact = kept;
  exact.pop_back();

  int64_t frames = 0;
  auto found = AllLandmarkPaths(line, kept, mass, 0, max_hops, 64,
                                      max_hops, &frames);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], exact);
  // Every partition before the target opens one frame.
  EXPECT_EQ(frames, max_hops);

  frames = 0;
  int64_t reference_frames = 0;
  EXPECT_TRUE(AllLandmarkPaths(line, kept, mass, 0, max_hops + 1, 64,
                                     max_hops, &frames)
                  .empty());
  EXPECT_TRUE(UnprunedLandmarkPaths(line, kept, mass, 0, max_hops + 1, 64,
                                    max_hops, &reference_frames)
                  .empty());
  // One hop too far: the prune rules out the first step, so only the
  // start's frame opens; without it the walk runs out to the hop cap.
  EXPECT_EQ(frames, 1);
  EXPECT_EQ(reference_frames, max_hops + 1);
}

TEST(PartitionPathEnumerationTest, StartIsTarget) {
  const Adjacency line = Line(4);
  const std::vector<double> mass = {0.5, 1.0, 0.25, 0.0};
  int64_t frames = 0;
  auto found = AllLandmarkPaths(line, All(4), mass, 2, 2, 64, 10,
                                      &frames);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], std::vector<PartitionId>{2});
  EXPECT_EQ(frames, 0);
}

TEST(PartitionPathEnumerationTest, TargetUnreachableInsideKept) {
  // 0 - 1 - 2 - 3 with the bridge partition 1 filtered out.
  const Adjacency line = Line(4);
  const std::vector<PartitionId> kept = {0, 2, 3};
  const std::vector<double> mass(4, 1.0);
  int64_t frames = 0;
  int64_t reference_frames = 0;
  EXPECT_TRUE(
      AllLandmarkPaths(line, kept, mass, 0, 3, 64, 10, &frames).empty());
  EXPECT_TRUE(UnprunedLandmarkPaths(line, kept, mass, 0, 3, 64, 10,
                                    &reference_frames)
                  .empty());
  EXPECT_EQ(frames, 1);
  // From the far side the target is reachable but 2's dead end is not
  // entered: 3 is adjacent, so the pruned walk still finds 2 -> 3.
  auto found = AllLandmarkPaths(line, kept, mass, 2, 3, 64, 10, nullptr);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], (std::vector<PartitionId>{2, 3}));
}

TEST(PartitionPathEnumerationTest, TruncationKeepsTheSameFirstPaths) {
  // Corner to corner on a full 4x4 grid has far more than 64 simple paths
  // within 10 hops.
  Rng rng(5);
  const Adjacency grid = Grid(4, 4, 1.0, 0.0, rng);
  const std::vector<PartitionId> kept = All(16);
  std::vector<double> mass(16);
  for (double& m : mass) m = 0.25 * double(rng.NextInt(0, 3));
  const int32_t max_paths = RoutePlanner::kMaxPartitionPaths;
  const int32_t max_hops = RoutePlanner::kMaxPathHops;
  int64_t frames = 0;
  int64_t reference_frames = 0;
  auto untruncated = UnprunedLandmarkPaths(grid, kept, mass, 0, 15, 100000,
                                           max_hops, &reference_frames);
  ASSERT_GT(untruncated.size(), static_cast<size_t>(max_paths));
  reference_frames = 0;
  auto want = UnprunedLandmarkPaths(grid, kept, mass, 0, 15, max_paths,
                                    max_hops, &reference_frames);
  auto got = AllLandmarkPaths(grid, kept, mass, 0, 15, max_paths,
                                    max_hops, &frames);
  ASSERT_EQ(got.size(), static_cast<size_t>(max_paths));
  EXPECT_EQ(got, want);
  EXPECT_LE(frames, reference_frames);
}

}  // namespace
}  // namespace mtshare
