#ifndef MTSHARE_MATCHING_T_SHARE_H_
#define MTSHARE_MATCHING_T_SHARE_H_

#include "matching/dispatcher.h"
#include "spatial/grid_index.h"

namespace mtshare {

/// The T-Share baseline (Ma et al., ICDE'13 / TKDE'15, as characterized in
/// paper Sec. V-A2): grid-indexed taxis, a *dual-side* search anchored at
/// both the request's origin and destination, and **first-valid** taxi
/// selection — it stops at the first candidate admitting a feasible
/// insertion instead of scanning for the minimum-detour one.
///
/// The dual-side intersection is what shrinks its candidate sets (paper
/// Table III) and "mistakenly removes many possible taxis" [42]: a taxi
/// currently on the far side of the destination is discarded even when its
/// schedule would serve the trip well.
class TShareDispatcher : public Dispatcher {
 public:
  TShareDispatcher(const RoadNetwork& network, DistanceOracle* oracle,
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

#endif  // MTSHARE_MATCHING_T_SHARE_H_
