#include "sched/route_planner.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>

#include "common/logging.h"

namespace mtshare {
namespace {

constexpr double kPsiFloor = 1e-6;  // avoids division by zero in 1/psi

bool NoDirection(const Point& taxi_direction) {
  return taxi_direction.x == 0.0 && taxi_direction.y == 0.0;
}

}  // namespace

size_t EnumerateLandmarkPaths(
    const std::vector<std::vector<PartitionId>>& adjacency,
    const std::vector<PartitionId>& kept, const std::vector<double>& mass,
    PartitionId pz, PartitionId pz1, int32_t max_paths, int32_t max_hops,
    size_t max_out, LandmarkPathScratch* scratch, int64_t* frames) {
  LandmarkPathScratch& s = *scratch;
  const size_t n = adjacency.size();
  s.in_kept_.assign(n, 0);
  for (PartitionId p : kept) s.in_kept_[p] = 1;
  MTSHARE_CHECK(s.in_kept_[pz]);

  // Each kept partition's kept neighbours, listed once for the whole call
  // in adjacency order; a frame filters its list by `visited` only, so it
  // sorts the same sequence as filtering the whole adjacency would.
  s.nbr_begin_.resize(n);
  s.nbr_end_.resize(n);
  s.kept_nbrs_.clear();
  for (PartitionId p : kept) {
    s.nbr_begin_[p] = s.kept_nbrs_.size();
    for (PartitionId q : adjacency[p]) {
      if (s.in_kept_[q]) s.kept_nbrs_.push_back(q);
    }
    s.nbr_end_[p] = s.kept_nbrs_.size();
  }
  auto kept_neighbours = [&s](PartitionId p) {
    return std::span<const PartitionId>(s.kept_nbrs_.data() + s.nbr_begin_[p],
                                        s.kept_nbrs_.data() + s.nbr_end_[p]);
  };

  // Hop distance from each kept partition to pz1 through kept partitions
  // (breadth-first from pz1; the adjacency is symmetric). It ignores the
  // DFS's visited set, so it never overestimates the hops a branch still
  // needs: a branch it rules out could not have closed a path.
  constexpr int32_t kUnreachable = std::numeric_limits<int32_t>::max();
  s.to_target_.assign(n, kUnreachable);
  s.queue_.clear();
  if (s.in_kept_[pz1]) {
    s.queue_.push_back(pz1);
    s.to_target_[pz1] = 0;
    for (size_t head = 0; head < s.queue_.size(); ++head) {
      const PartitionId p = s.queue_[head];
      for (PartitionId q : kept_neighbours(p)) {
        if (s.to_target_[q] == kUnreachable) {
          s.to_target_[q] = s.to_target_[p] + 1;
          s.queue_.push_back(q);
        }
      }
    }
  }

  // Depth-first enumeration of simple paths, greedy-heavy-first so that
  // early truncation keeps the strongest candidates. A frame's sorted
  // neighbours are a slice of `nbrs_`, which grows and shrinks with the
  // stack. The sort stays per frame: a neighbour list sorted once per
  // call would break mass ties differently, since std::sort is not
  // stable.
  s.visited_.assign(n, 0);
  s.nbrs_.clear();
  s.stack_.clear();
  s.current_.clear();
  s.found_.clear();
  s.found_starts_.clear();
  s.found_weights_.clear();
  auto record = [&s, &mass]() {
    double w = 0.0;
    for (PartitionId p : s.current_) w += mass[p];
    s.found_starts_.push_back(s.found_.size());
    s.found_.insert(s.found_.end(), s.current_.begin(), s.current_.end());
    s.found_weights_.push_back(w);
  };
  int64_t opened = 0;
  auto open = [&](PartitionId p) {
    const size_t begin = s.nbrs_.size();
    for (PartitionId q : kept_neighbours(p)) {
      if (!s.visited_[q]) s.nbrs_.push_back(q);
    }
    std::sort(s.nbrs_.begin() + static_cast<std::ptrdiff_t>(begin),
              s.nbrs_.end(),
              [&](PartitionId a, PartitionId b) { return mass[a] > mass[b]; });
    s.stack_.push_back({p, begin, begin, s.nbrs_.size()});
    ++opened;
  };

  s.current_.push_back(pz);
  s.visited_[pz] = 1;
  if (pz == pz1) {
    record();
  } else {
    open(pz);
    while (!s.stack_.empty() &&
           static_cast<int32_t>(s.found_weights_.size()) < max_paths) {
      LandmarkPathScratch::Frame& frame = s.stack_.back();
      if (frame.next >= frame.end ||
          static_cast<int32_t>(s.current_.size()) > max_hops) {
        s.visited_[frame.node] = 0;
        s.current_.pop_back();
        s.nbrs_.resize(frame.begin);
        s.stack_.pop_back();
        continue;
      }
      const PartitionId next = s.nbrs_[frame.next++];
      if (s.visited_[next]) continue;
      // A frame at path size s expands only while s <= max_hops, so `next`,
      // pushed at size current.size() + 1, can still close a path only if
      // current.size() + to_target[next] <= max_hops. The neighbour list
      // was sorted before this test, so the sort sees the same input and
      // the found paths keep their order.
      if (next != pz1 &&
          s.to_target_[next] >
              max_hops - static_cast<int32_t>(s.current_.size())) {
        continue;
      }
      s.current_.push_back(next);
      if (next == pz1) {
        record();
        s.current_.pop_back();
      } else {
        s.visited_[next] = 1;
        open(next);
      }
    }
  }
  if (frames != nullptr) *frames += opened;
  s.found_starts_.push_back(s.found_.size());

  // The first max_out paths of the stable descending-weight order:
  // (weight descending, discovery index ascending) is a strict total
  // order, so a partial sort by it selects exactly those, in order.
  const size_t found = s.found_weights_.size();
  s.order_.resize(found);
  for (size_t k = 0; k < found; ++k) s.order_[k] = static_cast<int32_t>(k);
  const size_t out = std::min(found, max_out);
  const std::vector<double>& w = s.found_weights_;
  std::partial_sort(s.order_.begin(),
                    s.order_.begin() + static_cast<std::ptrdiff_t>(out),
                    s.order_.end(), [&w](int32_t a, int32_t b) {
                      return w[a] > w[b] || (w[a] == w[b] && a < b);
                    });
  s.order_.resize(out);
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
    std::vector<int32_t> dests;
    for (PartitionId p = 0; p < k; ++p) {
      SuitableDestinations(p, Point{0, 0}, 0.0, &dests);
      undirected_mass_[p] = DestinationMass(p, dests);
    }
    dest_words_ = (static_cast<size_t>(k) + 63) / 64;
    weight_memo_.resize(k);
    leg_dests_.resize(k);
    leg_mass_.resize(k);
    leg_weighted_.resize(k);
  }
}

void RoutePlanner::ClearMask() {
  for (PartitionId p : mask_partitions_) {
    for (VertexId v : partitioning_.partition_vertices[p]) mask_[v] = 0;
  }
  mask_partitions_.clear();
}

Path RoutePlanner::PlanBasicLeg(VertexId from, VertexId to) {
  ++stats_.basic_legs;
  if (from == to) return Path::Trivial(from);
  filter_.Filter(from, to, &kept_);
  ClearMask();
  filter_.AddToMask(kept_, &mask_);
  mask_partitions_ = kept_;
  SearchOptions sopt;
  sopt.allowed_vertices = &mask_;
  Path path = dijkstra_.FindPath(from, to, sopt);
  if (!path.valid) {
    // Filtered subgraph disconnected the endpoints: the unrestricted leg.
    ++stats_.basic_no_path;
    path = ShortestLeg(*oracle_, &dijkstra_, from, to,
                       &stats_.basic_no_path_legs);
  }
  return path;
}

void RoutePlanner::SuitableDestinations(PartitionId p,
                                        const Point& taxi_direction,
                                        double taxi_norm,
                                        std::vector<int32_t>* dests) const {
  dests->clear();
  const bool no_direction = NoDirection(taxi_direction);
  for (PartitionId q = 0; q < partitioning_.num_partitions(); ++q) {
    if (q == p) continue;
    if (!no_direction &&
        CosineFromNorms(landmarks_.Displacement(p, q),
                        landmarks_.DisplacementNorm(p, q), taxi_direction,
                        taxi_norm) < options_.lambda) {
      continue;
    }
    dests->push_back(q);
  }
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
  std::vector<int32_t> dests;
  SuitableDestinations(p, taxi_direction, VectorNorm(taxi_direction), &dests);
  return DestinationMass(p, dests);
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
  const size_t base = memo.weights.size();
  memo.weights.resize(base + members.size());
  double* w = memo.weights.data() + base;
  transitions_->MassTowards(members, dests, w);  // psi per member
  for (size_t i = 0; i < members.size(); ++i) {
    w[i] = 1.0 / (w[i] + kPsiFloor);
    vertex_weights_[members[i]] = w[i];
  }
}

Path RoutePlanner::PlanProbabilisticLeg(VertexId from, VertexId to,
                                        const Point& taxi_direction,
                                        Seconds travel_budget) {
  ++stats_.prob_legs;
  MTSHARE_CHECK(transitions_ != nullptr);
  if (from == to) return Path::Trivial(from);

  // Hopeless budgets fall back immediately (cheaper than a doomed search).
  if (oracle_->Cost(from, to) > travel_budget) {
    ++stats_.prob_fallbacks;
    return Path::Invalid();
  }

  filter_.Filter(from, to, &kept_);
  // Algorithm 4 step 1: each kept partition's suitable destinations for
  // this direction, which step 3 reuses, and its encounter mass. `kept_`
  // holds both endpoint partitions, so it covers every path partition.
  const bool no_direction = NoDirection(taxi_direction);
  const double taxi_norm = VectorNorm(taxi_direction);
  for (PartitionId p : kept_) {
    SuitableDestinations(p, taxi_direction, taxi_norm, &leg_dests_[p]);
    leg_mass_[p] = no_direction ? undirected_mass_[p]
                                : DestinationMass(p, leg_dests_[p]);
    leg_weighted_[p] = 0;
  }
  const size_t attempts = EnumerateLandmarkPaths(
      landmarks_.Adjacency(), kept_, leg_mass_,
      partitioning_.PartitionOf(from), partitioning_.PartitionOf(to),
      kMaxPartitionPaths, kMaxPathHops, kMaxAttempts, &paths_,
      &stats_.enumeration_frames);

  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    const std::span<const PartitionId> path_partitions = paths_.path(attempt);
    ClearMask();
    filter_.AddToMask(path_partitions, &mask_);
    mask_partitions_.assign(path_partitions.begin(), path_partitions.end());
    // Fine-grained weights (Algorithm 4 step 3): 1/psi_c where psi_c is the
    // vertex's transition mass toward its partition's suitable destinations.
    // Attempts share partitions, and a partition's weights are fixed for
    // the leg, so each is written once.
    for (PartitionId p : path_partitions) {
      if (!leg_weighted_[p]) LoadVertexWeights(p);
      leg_weighted_[p] = 1;
    }
    ++stats_.prob_attempts;
    SearchOptions sopt;
    sopt.allowed_vertices = &mask_;
    sopt.vertex_weights = &vertex_weights_;
    sopt.max_travel = travel_budget;
    Path path = dijkstra_.FindPath(from, to, sopt);
    if (path.valid && path.cost <= travel_budget) return path;
  }
  ++stats_.prob_fallbacks;
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
