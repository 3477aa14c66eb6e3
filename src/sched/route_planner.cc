#include "sched/route_planner.h"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "common/logging.h"

namespace mtshare {
namespace {

constexpr double kPsiFloor = 1e-6;  // avoids division by zero in 1/psi

bool NoDirection(const Point& taxi_direction) {
  return taxi_direction.x == 0.0 && taxi_direction.y == 0.0;
}

}  // namespace

std::vector<std::vector<PartitionId>> EnumerateLandmarkPaths(
    const std::vector<std::vector<PartitionId>>& adjacency,
    const std::vector<PartitionId>& kept, const std::vector<double>& mass,
    PartitionId pz, PartitionId pz1, int32_t max_paths, int32_t max_hops,
    int64_t* frames) {
  const size_t n = adjacency.size();
  std::vector<uint8_t> in_kept(n, 0);
  for (PartitionId p : kept) in_kept[p] = 1;

  // Hop distance from each kept partition to pz1 through kept partitions
  // (breadth-first from pz1; the adjacency is symmetric). It ignores the
  // DFS's visited set, so it never overestimates the hops a branch still
  // needs: a branch it rules out could not have closed a path.
  constexpr int32_t kUnreachable = std::numeric_limits<int32_t>::max();
  std::vector<int32_t> to_target(n, kUnreachable);
  if (in_kept[pz1]) {
    std::vector<PartitionId> queue{pz1};
    to_target[pz1] = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
      PartitionId p = queue[head];
      for (PartitionId q : adjacency[p]) {
        if (in_kept[q] && to_target[q] == kUnreachable) {
          to_target[q] = to_target[p] + 1;
          queue.push_back(q);
        }
      }
    }
  }

  // Depth-first enumeration of simple paths, greedy-heavy-first so that
  // early truncation keeps the strongest candidates.
  struct PathAcc {
    std::vector<PartitionId> path;
    double weight;
  };
  std::vector<PathAcc> found;
  std::vector<PartitionId> current;
  std::vector<uint8_t> visited(n, 0);

  // A frame's sorted neighbours are the slice [begin, end) of `nbrs`, which
  // grows and shrinks with the stack.
  struct Frame {
    PartitionId node;
    size_t begin;
    size_t next;
    size_t end;
  };
  std::vector<PartitionId> nbrs;
  std::vector<Frame> stack;
  int64_t opened = 0;
  auto open = [&](PartitionId p) {
    const size_t begin = nbrs.size();
    for (PartitionId q : adjacency[p]) {
      if (in_kept[q] && !visited[q]) nbrs.push_back(q);
    }
    std::sort(nbrs.begin() + static_cast<std::ptrdiff_t>(begin), nbrs.end(),
              [&](PartitionId a, PartitionId b) { return mass[a] > mass[b]; });
    stack.push_back({p, begin, begin, nbrs.size()});
    ++opened;
  };

  current.push_back(pz);
  visited[pz] = 1;
  if (pz == pz1) {
    found.push_back({current, mass[pz]});
  } else {
    open(pz);
    while (!stack.empty() && static_cast<int32_t>(found.size()) < max_paths) {
      Frame& frame = stack.back();
      if (frame.next >= frame.end ||
          static_cast<int32_t>(current.size()) > max_hops) {
        visited[frame.node] = 0;
        current.pop_back();
        nbrs.resize(frame.begin);
        stack.pop_back();
        continue;
      }
      PartitionId next = nbrs[frame.next++];
      if (visited[next]) continue;
      // A frame at path size s expands only while s <= max_hops, so `next`,
      // pushed at size current.size() + 1, can still close a path only if
      // current.size() + to_target[next] <= max_hops. The neighbour list
      // was sorted before this test, so the sort sees the same input and
      // the found paths keep their order.
      if (next != pz1 &&
          to_target[next] >
              max_hops - static_cast<int32_t>(current.size())) {
        continue;
      }
      current.push_back(next);
      if (next == pz1) {
        double w = 0.0;
        for (PartitionId p : current) w += mass[p];
        found.push_back({current, w});
        current.pop_back();
      } else {
        visited[next] = 1;
        open(next);
      }
    }
  }
  if (frames != nullptr) *frames += opened;

  std::stable_sort(found.begin(), found.end(),
                   [](const PathAcc& a, const PathAcc& b) {
                     return a.weight > b.weight;
                   });
  std::vector<std::vector<PartitionId>> out;
  out.reserve(found.size());
  for (PathAcc& acc : found) out.push_back(std::move(acc.path));
  return out;
}

RoutePlanner::RoutePlanner(const RoadNetwork& network,
                           const MapPartitioning& partitioning,
                           const LandmarkGraph& landmark_graph,
                           const TransitionModel* transitions,
                           DistanceOracle* oracle,
                           const RoutePlannerOptions& options)
    : network_(network),
      partitioning_(partitioning),
      landmarks_(landmark_graph),
      transitions_(transitions),
      oracle_(oracle),
      options_(options),
      filter_(network, partitioning, landmark_graph, options.lambda),
      dijkstra_(network),
      mask_(network.num_vertices(), 0),
      vertex_weights_(network.num_vertices(), 0.0) {
  MTSHARE_CHECK(oracle != nullptr);
  const int32_t k = partitioning.num_partitions();
  if (transitions_ != nullptr) {
    MTSHARE_CHECK(transitions_->num_groups() == k);
    MTSHARE_CHECK(transitions_->num_vertices() == network.num_vertices());
    partition_transition_.assign(static_cast<size_t>(k) * k, 0.0);
    for (VertexId v = 0; v < network.num_vertices(); ++v) {
      PartitionId p = partitioning.PartitionOf(v);
      const double* row = transitions_->Row(v);
      for (int32_t q = 0; q < k; ++q) {
        partition_transition_[static_cast<size_t>(p) * k + q] += row[q];
      }
    }
    undirected_mass_.resize(k);
    for (PartitionId p = 0; p < k; ++p) {
      undirected_mass_[p] =
          DestinationMass(p, SuitableDestinations(p, Point{0, 0}));
    }
    dest_words_ = (static_cast<size_t>(k) + 63) / 64;
    weight_memo_.resize(k);
    leg_dests_.resize(k);
  }
}

void RoutePlanner::ClearMask() {
  for (PartitionId p : mask_partitions_) {
    for (VertexId v : partitioning_.partition_vertices[p]) mask_[v] = 0;
  }
  mask_partitions_.clear();
}

Path RoutePlanner::PlanBasicLeg(VertexId from, VertexId to) {
  ++basic_legs_;
  if (from == to) return Path::Trivial(from);
  std::vector<PartitionId> kept = filter_.Filter(from, to);
  ClearMask();
  filter_.AddToMask(kept, &mask_);
  mask_partitions_ = kept;
  SearchOptions sopt;
  sopt.allowed_vertices = &mask_;
  Path path = dijkstra_.FindPath(from, to, sopt);
  if (!path.valid) {
    // Filtered subgraph disconnected the endpoints; retry unrestricted.
    path = dijkstra_.FindPath(from, to);
  }
  return path;
}

std::vector<int32_t> RoutePlanner::SuitableDestinations(
    PartitionId p, const Point& taxi_direction) const {
  std::vector<int32_t> dests;
  const Point& from = network_.coord(partitioning_.landmarks[p]);
  const bool no_direction = NoDirection(taxi_direction);
  for (PartitionId q = 0; q < partitioning_.num_partitions(); ++q) {
    if (q == p) continue;
    if (!no_direction) {
      const Point& to = network_.coord(partitioning_.landmarks[q]);
      Point dir{to.x - from.x, to.y - from.y};
      if (DirectionCosine(dir, taxi_direction) < options_.lambda) continue;
    }
    dests.push_back(q);
  }
  return dests;
}

double RoutePlanner::DestinationMass(
    PartitionId p, const std::vector<int32_t>& dests) const {
  const int32_t k = partitioning_.num_partitions();
  double mass = 0.0;
  for (int32_t q : dests) {
    mass += partition_transition_[static_cast<size_t>(p) * k + q];
  }
  return mass;
}

double RoutePlanner::PartitionEncounterMass(
    PartitionId p, const Point& taxi_direction) const {
  if (transitions_ == nullptr) return 0.0;
  if (NoDirection(taxi_direction)) return undirected_mass_[p];
  return DestinationMass(p, SuitableDestinations(p, taxi_direction));
}

void RoutePlanner::LoadVertexWeights(PartitionId p) {
  // psi_c depends on the vertex and its partition's suitable destinations
  // only, and the destination list is ascending, so the set is the key.
  const std::vector<int32_t>& dests = leg_dests_[p];
  dest_key_.assign(dest_words_, 0);
  for (int32_t q : dests) dest_key_[q / 64] |= uint64_t{1} << (q % 64);
  const std::vector<VertexId>& members = partitioning_.partition_vertices[p];
  WeightMemo& memo = weight_memo_[p];
  const size_t entries = memo.keys.size() / dest_words_;
  for (size_t e = 0; e < entries; ++e) {
    if (std::equal(dest_key_.begin(), dest_key_.end(),
                   memo.keys.begin() + e * dest_words_)) {
      const double* w = memo.weights.data() + e * members.size();
      for (size_t i = 0; i < members.size(); ++i) {
        vertex_weights_[members[i]] = w[i];
      }
      return;
    }
  }
  memo.keys.insert(memo.keys.end(), dest_key_.begin(), dest_key_.end());
  for (VertexId v : members) {
    double psi = transitions_->MassTowards(v, dests);
    vertex_weights_[v] = 1.0 / (psi + kPsiFloor);
    memo.weights.push_back(vertex_weights_[v]);
  }
}

Path RoutePlanner::PlanProbabilisticLeg(VertexId from, VertexId to,
                                        const Point& taxi_direction,
                                        Seconds travel_budget) {
  ++prob_legs_;
  MTSHARE_CHECK(transitions_ != nullptr);
  if (from == to) return Path::Trivial(from);

  // Hopeless budgets fall back immediately (cheaper than a doomed search).
  if (oracle_->Cost(from, to) > travel_budget) {
    ++prob_fallbacks_;
    return Path::Invalid();
  }

  std::vector<PartitionId> kept = filter_.Filter(from, to);
  // Algorithm 4 step 1: each kept partition's suitable destinations for
  // this direction, which step 3 reuses, and its encounter mass. `kept`
  // holds both endpoint partitions, so it covers every path partition.
  const bool no_direction = NoDirection(taxi_direction);
  std::vector<double> mass(partitioning_.num_partitions(), 0.0);
  for (PartitionId p : kept) {
    leg_dests_[p] = SuitableDestinations(p, taxi_direction);
    mass[p] = no_direction ? undirected_mass_[p]
                           : DestinationMass(p, leg_dests_[p]);
  }
  std::vector<std::vector<PartitionId>> partition_paths =
      EnumerateLandmarkPaths(landmarks_.Adjacency(), kept, mass,
                             partitioning_.PartitionOf(from),
                             partitioning_.PartitionOf(to),
                             kMaxPartitionPaths, kMaxPathHops,
                             &enumeration_frames_);

  int32_t attempts = std::min<int32_t>(
      kMaxAttempts, static_cast<int32_t>(partition_paths.size()));
  // Attempts share partitions, and a partition's weights are fixed for the
  // leg, so each is written once.
  std::vector<uint8_t> weighted(partitioning_.num_partitions(), 0);
  for (int32_t attempt = 0; attempt < attempts; ++attempt) {
    const auto& path_partitions = partition_paths[attempt];
    ClearMask();
    filter_.AddToMask(path_partitions, &mask_);
    mask_partitions_ = path_partitions;
    // Fine-grained weights (Algorithm 4 step 3): 1/psi_c where psi_c is the
    // vertex's transition mass toward its partition's suitable destinations.
    for (PartitionId p : path_partitions) {
      if (!weighted[p]) LoadVertexWeights(p);
      weighted[p] = 1;
    }
    SearchOptions sopt;
    sopt.allowed_vertices = &mask_;
    sopt.vertex_weights = &vertex_weights_;
    sopt.max_travel = travel_budget;
    Path path = dijkstra_.FindPath(from, to, sopt);
    if (path.valid && path.cost <= travel_budget) return path;
  }
  ++prob_fallbacks_;
  return Path::Invalid();
}

RoutePlanner::PlannedRoute RoutePlanner::PlanRoute(VertexId start,
                                                   Seconds start_time,
                                                   const Schedule& schedule,
                                                   const Point& taxi_direction) {
  PlannedRoute out;
  out.path = Path::Trivial(start);
  if (schedule.empty()) {
    out.valid = true;
    return out;
  }

  // Oracle (shortest-path) leg costs for budget computation: leg z connects
  // event z-1 (or start) to event z.
  const size_t m = schedule.size();
  std::vector<Seconds> oracle_leg(m, 0.0);
  {
    VertexId at = start;
    for (size_t z = 0; z < m; ++z) {
      oracle_leg[z] = oracle_->Cost(at, schedule.at(z).vertex);
      if (oracle_leg[z] == kInfiniteCost) return PlannedRoute{};
      at = schedule.at(z).vertex;
    }
  }

  VertexId at = start;
  Seconds t = start_time;
  for (size_t z = 0; z < m; ++z) {
    const ScheduleEvent& event = schedule.at(z);
    // Largest leg travel budget keeping every remaining deadline reachable
    // via shortest paths afterwards.
    Seconds budget = kInfiniteCost;
    Seconds future = 0.0;
    for (size_t k = z; k < m; ++k) {
      if (k > z) future += oracle_leg[k];
      budget = std::min(budget, schedule.at(k).deadline - t - future);
    }
    budget = std::min(budget, oracle_leg[z] * options_.prob_max_stretch +
                                  kProbExtraSlack);
    Path leg = PlanProbabilisticLeg(at, event.vertex, taxi_direction, budget);
    if (!leg.valid) leg = PlanBasicLeg(at, event.vertex);
    if (!leg.valid) return PlannedRoute{};
    t += leg.cost;
    if (t > event.deadline + 1e-9) return PlannedRoute{};
    AppendPath(&out.path, leg);
    out.event_arrivals.push_back(t);
    at = event.vertex;
  }
  out.valid = true;
  return out;
}

}  // namespace mtshare
