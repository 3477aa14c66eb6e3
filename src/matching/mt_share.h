#ifndef MTSHARE_MATCHING_MT_SHARE_H_
#define MTSHARE_MATCHING_MT_SHARE_H_

#include <memory>

#include "matching/dispatcher.h"
#include "matching/taxi_index.h"
#include "mobility/transition_model.h"
#include "partition/landmark_graph.h"
#include "partition/map_partitioning.h"

namespace mtshare {

/// The paper's scheme (Sec. IV): mobility-aware candidate search over map
/// partitions x mobility clusters, exhaustive minimum-detour insertion
/// (Algorithm 1), and two-phase route planning with partition filtering —
/// basic shortest-path legs for mT-Share, and for the mT-Share^pro variant
/// probabilistic offline-seeking legs whenever the taxi has enough idle
/// seats, plus idle cruising.
class MtShareDispatcher : public Dispatcher {
 public:
  /// `landmarks`/`partitioning`/`transitions` must outlive the dispatcher;
  /// the transitions' group space must equal the partitioning.
  /// `probabilistic` selects mT-Share^pro.
  MtShareDispatcher(const RoadNetwork& network, DistanceOracle* oracle,
                    std::vector<TaxiState>* fleet,
                    const MatchingConfig& config,
                    const LandmarkGraph& landmarks,
                    const MapPartitioning& partitioning,
                    const TransitionModel& transitions, bool probabilistic);

  DispatchOutcome Dispatch(const RideRequest& request, Seconds now) override;

  size_t IndexMemoryBytes() const override;

  /// Route planner (exposed for the routing-mode benches and tests).
  RoutePlanner& planner() { return planner_; }
  const MtShareTaxiIndex& index() const { return index_; }

 private:
  void IndexTaxiAdvanced(TaxiId taxi, size_t from_pos,
                         size_t to_pos) override;
  void IndexScheduleCommitted(TaxiId taxi) override;
  void IndexRequestCompleted(const RideRequest& request,
                             TaxiId taxi) override;

  /// Candidate taxi set T_ri of paper eq. (3) plus the refinement rules.
  /// Returns a reference into `candidates_buf_`, valid until the next call
  /// (Dispatch is serialized per dispatcher instance, see DESIGN.md).
  const std::vector<TaxiId>& CandidateTaxis(const RideRequest& request,
                                            Seconds now, double gamma);

  /// Whether this taxi may drive probabilistic legs right now.
  bool ProbQualifies(const TaxiState& t) const;

  const MapPartitioning& partitioning_;
  /// mT-Share^pro: probabilistic routes and idle cruising.
  const bool probabilistic_;
  RoutePlanner planner_;
  MtShareTaxiIndex index_;
  /// Epoch-stamped visited markers for candidate dedup and for the
  /// direction-compatible cluster membership test (O(1) reset: one
  /// NextEpoch per CandidateTaxis call covers both arrays).
  std::vector<uint32_t> seen_stamp_;
  std::vector<uint32_t> cluster_stamp_;
  uint32_t seen_epoch_ = 0;
  /// Per-request scratch (cleared + refilled each call; capacity persists
  /// so steady-state candidate search performs no allocations).
  std::vector<PartitionId> area_buf_;
  std::vector<TaxiId> cluster_buf_;
  std::vector<TaxiId> candidates_buf_;
};

}  // namespace mtshare

#endif  // MTSHARE_MATCHING_MT_SHARE_H_
