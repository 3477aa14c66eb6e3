#ifndef MTSHARE_SCHED_ROUTE_PLANNER_H_
#define MTSHARE_SCHED_ROUTE_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mobility/transition_model.h"
#include "routing/dijkstra.h"
#include "routing/distance_oracle.h"
#include "routing/shortest_leg.h"
#include "sched/partition_filter.h"
#include "sched/schedule.h"

namespace mtshare {

class LandmarkPathScratch;

/// Algorithm 4 step 2: simple paths from `pz` to `pz1` through the `kept`
/// partitions of an undirected graph (`adjacency[p]` lists p's neighbours
/// and q is in p's list exactly when p is in q's, as in the landmark
/// graph); `kept` must hold `pz`. Depth-first, heaviest `mass` neighbour
/// first (each frame sorts its unvisited kept neighbours, listed in
/// adjacency order, with std::sort), so that stopping at `max_paths`
/// found paths keeps the strongest candidates; a path has at most
/// `max_hops` hops. A branch whose breadth-first hop distance to `pz1`
/// inside `kept` cannot close within `max_hops` is never opened; `frames`,
/// when given, is advanced by the DFS frames that were. Keeps the first
/// `max_out` paths by descending summed `mass` (ties keep discovery
/// order) in `scratch` and returns how many it kept.
size_t EnumerateLandmarkPaths(
    const std::vector<std::vector<PartitionId>>& adjacency,
    const std::vector<PartitionId>& kept, const std::vector<double>& mass,
    PartitionId pz, PartitionId pz1, int32_t max_paths, int32_t max_hops,
    size_t max_out, LandmarkPathScratch* scratch, int64_t* frames = nullptr);

/// Buffers of EnumerateLandmarkPaths and the paths of its last call. A
/// caller that keeps one across calls enumerates without allocating once
/// the buffers have grown.
class LandmarkPathScratch {
 public:
  /// Paths the last call kept, best first.
  size_t num_paths() const { return order_.size(); }
  /// The partitions of kept path `i`, from the start to the target.
  std::span<const PartitionId> path(size_t i) const {
    const size_t k = static_cast<size_t>(order_[i]);
    return {found_.data() + found_starts_[k],
            found_.data() + found_starts_[k + 1]};
  }

 private:
  friend size_t EnumerateLandmarkPaths(
      const std::vector<std::vector<PartitionId>>& adjacency,
      const std::vector<PartitionId>& kept, const std::vector<double>& mass,
      PartitionId pz, PartitionId pz1, int32_t max_paths, int32_t max_hops,
      size_t max_out, LandmarkPathScratch* scratch, int64_t* frames);

  struct Frame {
    PartitionId node;
    size_t begin;  // the frame's sorted neighbours are nbrs_[begin, end)
    size_t next;
    size_t end;
  };
  std::vector<uint8_t> in_kept_;
  std::vector<uint8_t> visited_;
  std::vector<int32_t> to_target_;
  std::vector<PartitionId> queue_;
  // Each kept partition p's kept neighbours, in adjacency order:
  // kept_nbrs_[nbr_begin_[p], nbr_end_[p]).
  std::vector<PartitionId> kept_nbrs_;
  std::vector<size_t> nbr_begin_;
  std::vector<size_t> nbr_end_;
  std::vector<PartitionId> nbrs_;
  std::vector<Frame> stack_;
  std::vector<PartitionId> current_;
  // Every path found, in discovery order: path k is
  // found_[found_starts_[k], found_starts_[k + 1]) of summed mass
  // found_weights_[k].
  std::vector<PartitionId> found_;
  std::vector<size_t> found_starts_;
  std::vector<double> found_weights_;
  std::vector<int32_t> order_;  // the kept paths' discovery indices
};

/// Counters of one RoutePlanner (run report, routing section).
struct RoutePlannerStats {
  /// Algorithm 4 legs planned, trivial ones (start == end) included.
  int64_t prob_legs = 0;
  /// Weighted masked searches those legs ran, at most kMaxAttempts each.
  int64_t prob_attempts = 0;
  /// Algorithm 4 legs that returned no path: a hopeless budget or no
  /// attempt within it. The caller falls back to a basic leg.
  int64_t prob_fallbacks = 0;
  /// DFS frames Algorithm 4's landmark-path enumeration opened.
  int64_t enumeration_frames = 0;
  /// Algorithm 3 legs planned, trivial ones included.
  int64_t basic_legs = 0;
  /// Basic legs whose partition-filtered search found no path, and how
  /// their unrestricted legs were built (ShortestLeg).
  int64_t basic_no_path = 0;
  ShortestLegCounts basic_no_path_legs;
};

struct RoutePlannerOptions {
  /// Direction threshold lambda shared by partition filtering and the
  /// suitable-destination test (Table II default 0.707 == 45 degrees).
  double lambda = 0.707;
  /// Cap on a probabilistic leg's travel relative to its shortest leg:
  /// budget = min(deadline slack, shortest * prob_max_stretch +
  /// RoutePlanner::kProbExtraSlack). Keeps the offline-seeking detour from
  /// consuming the very slack needed to insert an encountered hailer (the
  /// probability/detour trade-off the paper defers to future work,
  /// Sec. IV-C2).
  double prob_max_stretch = 1.5;
};

/// Two-phase route planning (paper Sec. IV-C2): partition filtering plus
/// segment-level routing, in basic (shortest path, Algorithm 3) or
/// probabilistic (offline-request seeking, Algorithm 4) mode.
///
/// Not thread-safe; owns reusable search buffers.
class RoutePlanner {
 public:
  /// Probabilistic routing retries before discarding (paper: 5).
  static constexpr int32_t kMaxAttempts = 5;
  /// Bound on enumerated landmark paths per leg (the paper enumerates all
  /// paths of the small filtered landmark graph; we cap for safety).
  static constexpr int32_t kMaxPartitionPaths = 64;
  /// Bound on landmark-path hops during enumeration.
  static constexpr int32_t kMaxPathHops = 10;
  /// Seconds a probabilistic leg may add to its stretched shortest cost
  /// (see RoutePlannerOptions::prob_max_stretch).
  static constexpr Seconds kProbExtraSlack = 90.0;

  /// `transitions` may be null when only basic routing is used; when
  /// provided, its group space must be the partitioning's partitions.
  RoutePlanner(const RoadNetwork& network, const MapPartitioning& partitioning,
               const LandmarkGraph& landmark_graph,
               const TransitionModel* transitions, DistanceOracle* oracle,
               const RoutePlannerOptions& options);

  /// Algorithm 3 for one leg: shortest path on the partition-filtered
  /// subgraph; if the filtered subgraph disconnects the endpoints, the
  /// unrestricted shortest path, walked through the start's resident
  /// exact-table row when there is one (ShortestLeg).
  Path PlanBasicLeg(VertexId from, VertexId to);

  /// Algorithm 4 for one leg: maximize the probability of encountering
  /// direction-compatible offline requests, subject to the leg completing
  /// within `travel_budget` seconds. `taxi_direction` is the displacement
  /// of the taxi's mobility vector. Returns an invalid path when no
  /// attempt satisfies the budget (caller falls back or discards).
  Path PlanProbabilisticLeg(VertexId from, VertexId to,
                            const Point& taxi_direction,
                            Seconds travel_budget);

  /// A materialized route for a whole schedule.
  struct PlannedRoute {
    bool valid = false;
    Path path;                            ///< concatenated leg paths
    std::vector<Seconds> event_arrivals;  ///< absolute arrival per event
  };

  /// Plans every leg of `schedule` probabilistically (needs
  /// `transitions`), starting from `start` at `start_time`: each leg gets
  /// the largest travel budget that keeps all remaining deadlines reachable
  /// (assuming shortest-path legs afterwards); legs where probabilistic
  /// planning fails fall back to basic. Returns invalid if any deadline is
  /// missed. (Committed basic routes come from
  /// Dispatcher::PlanShortestRoute.)
  PlannedRoute PlanRoute(VertexId start, Seconds start_time,
                         const Schedule& schedule,
                         const Point& taxi_direction = Point{0, 0});

  /// Probability mass of meeting suitable requests inside partition `p`
  /// for a taxi heading along `taxi_direction` (Algorithm 4 step 1). The
  /// direction-free mass (`Point{0, 0}`), which idle cruising samples
  /// targets by, is precomputed per partition at construction.
  double PartitionEncounterMass(PartitionId p,
                                const Point& taxi_direction) const;

  const RoutePlannerStats& stats() const { return stats_; }

 private:
  /// Replaces `*dests` with the destination partitions compatible with
  /// the taxi direction from partition p, ascending. `taxi_norm` is
  /// VectorNorm(taxi_direction).
  void SuitableDestinations(PartitionId p, const Point& taxi_direction,
                            double taxi_norm,
                            std::vector<int32_t>* dests) const;

  /// Summed partition transition mass from `p` into `dests`.
  double DestinationMass(PartitionId p,
                         const std::vector<int32_t>& dests) const;

  /// Writes Algorithm 4's fine-grained weights 1/(psi + floor) for the
  /// vertices of partition `p`, given this leg's suitable destinations
  /// `leg_dests_[p]`, into `vertex_weights_`; from the memo when that
  /// destination set has been seen before.
  void LoadVertexWeights(PartitionId p);

  void ClearMask();

  const RoadNetwork& network_;
  const MapPartitioning& partitioning_;
  const LandmarkGraph& landmarks_;
  const TransitionModel* transitions_;
  DistanceOracle* oracle_;
  RoutePlannerOptions options_;
  PartitionFilter filter_;
  DijkstraSearch dijkstra_;

  /// Partition-to-partition transition mass: sum over vertices of the row
  /// partition of their transition probability into the column partition.
  std::vector<double> partition_transition_;  // kappa x kappa, row-major
  /// PartitionEncounterMass(p, Point{0, 0}) per partition.
  std::vector<double> undirected_mass_;

  /// Fine-grained weight memo, per partition: the suitable-destination
  /// sets seen so far as bitsets of `dest_words_` words each, and for each
  /// set the partition's vertex weights in `partition_vertices` order. A
  /// partition has at most about 2 kappa distinct sets (one per arc
  /// between the direction cones of the other landmarks) plus the
  /// direction-free one, so the memo needs no eviction.
  struct WeightMemo {
    std::vector<uint64_t> keys;
    std::vector<double> weights;
  };
  size_t dest_words_ = 0;
  std::vector<WeightMemo> weight_memo_;
  std::vector<uint64_t> dest_key_;  // key buffer of the current lookup

  // Per-leg scratch, rewritten by every leg; only the entries of the
  // leg's kept partitions are read.
  std::vector<PartitionId> kept_;  // the leg's filtered partitions
  /// Suitable destinations per kept partition (Algorithm 4 step 1),
  /// reused by step 3.
  std::vector<std::vector<int32_t>> leg_dests_;
  std::vector<double> leg_mass_;      // encounter mass per kept partition
  std::vector<uint8_t> leg_weighted_;  // weights already written this leg
  LandmarkPathScratch paths_;

  std::vector<uint8_t> mask_;
  std::vector<PartitionId> mask_partitions_;  // partitions currently set
  std::vector<double> vertex_weights_;

  RoutePlannerStats stats_;
};

}  // namespace mtshare

#endif  // MTSHARE_SCHED_ROUTE_PLANNER_H_
