#ifndef MTSHARE_MATCHING_PGREEDY_DP_H_
#define MTSHARE_MATCHING_PGREEDY_DP_H_

#include "matching/dispatcher.h"
#include "spatial/grid_index.h"

namespace mtshare {

/// The pGreedyDP baseline (Tong et al., VLDB'18, as characterized in paper
/// Sec. V-A2): grid-indexed taxis, candidates are *all* taxis within gamma
/// of the request origin (single-side, no direction pruning — hence the
/// largest candidate sets, Table III), and the insertion position is found
/// with the dynamic-programming slack precomputation
/// (FindBestInsertionDp). The minimum-detour candidate wins.
class PGreedyDpDispatcher : public Dispatcher {
 public:
  PGreedyDpDispatcher(const RoadNetwork& network, DistanceOracle* oracle,
                      std::vector<TaxiState>* fleet,
                      const MatchingConfig& config,
                      const LandmarkGraph& landmarks);

  DispatchOutcome Dispatch(const RideRequest& request, Seconds now) override;

  size_t IndexMemoryBytes() const override { return index_.MemoryBytes(); }

 private:
  void IndexTaxiAdvanced(TaxiId taxi, size_t from_pos,
                         size_t to_pos) override;
  void IndexScheduleCommitted(TaxiId taxi) override;

  DynamicGridIndex index_;  ///< positions of all taxis
};

}  // namespace mtshare

#endif  // MTSHARE_MATCHING_PGREEDY_DP_H_
