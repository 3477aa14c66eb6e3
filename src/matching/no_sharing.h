#ifndef MTSHARE_MATCHING_NO_SHARING_H_
#define MTSHARE_MATCHING_NO_SHARING_H_

#include "matching/dispatcher.h"
#include "spatial/grid_index.h"

namespace mtshare {

/// The regular-taxi baseline (paper Sec. V-A2): each request goes to the
/// geographically nearest *idle* taxi inside the searching range gamma; no
/// sharing ever happens, and offline requests are not served.
class NoSharingDispatcher : public Dispatcher {
 public:
  NoSharingDispatcher(const RoadNetwork& network, DistanceOracle* oracle,
                      std::vector<TaxiState>* fleet,
                      const MatchingConfig& config,
                      const LandmarkGraph& landmarks);

  DispatchOutcome Dispatch(const RideRequest& request, Seconds now) override;

  bool ServesOfflineRequests() const override { return false; }
  size_t IndexMemoryBytes() const override { return index_.MemoryBytes(); }

 private:
  void IndexScheduleCommitted(TaxiId taxi) override;

  DynamicGridIndex index_;  ///< positions of idle taxis only
};

}  // namespace mtshare

#endif  // MTSHARE_MATCHING_NO_SHARING_H_
