#ifndef MTSHARE_MATCHING_TAXI_INDEX_H_
#define MTSHARE_MATCHING_TAXI_INDEX_H_

#include <cstdint>
#include <vector>

#include "matching/taxi_state.h"
#include "mobility/mobility_clustering.h"
#include "partition/map_partitioning.h"

namespace mtshare {

/// mT-Share's dual taxi index (paper Sec. IV-B3):
///  - *map-partition lists* P_z.L_t: for each partition, the taxis that are
///    in it now or will arrive within the horizon T_mp, with arrival times
///    (derived from committed routes);
///  - *mobility-cluster lists* C_a.L_t: busy taxis grouped by travel
///    direction via MobilityClustering. Ride requests are clustered in the
///    same structure (distinct key space) so cluster general vectors track
///    both populations.
class MtShareTaxiIndex {
 public:
  /// Horizon T_mp of the partition taxi lists (Table II: 1 hour).
  static constexpr Seconds kTmp = 3600.0;

  MtShareTaxiIndex(const RoadNetwork& network,
                   const MapPartitioning& partitioning, double lambda);

  /// (Re)indexes a taxi from its current state: partition memberships from
  /// its route (or its location when idle) and cluster membership from its
  /// mobility vector. Call on fleet setup and whenever a schedule/route is
  /// committed or drained.
  void ReindexTaxi(const TaxiState& taxi, Seconds now);

  /// Refresh after the taxi advanced from route position `from_pos`
  /// through `to_pos`. Idle taxis reindex once at `to_pos`. Busy taxis'
  /// *future* memberships are route-derived and stay valid between
  /// commits, but the current-partition entry goes stale the moment the
  /// taxi crosses a partition border: the partition it left keeps
  /// advertising it with a past arrival time. Every crossing therefore
  /// triggers a reindex *as of that position* (location, arrival horizon,
  /// and mobility vector evaluated at the crossing, so the clustering's
  /// floating-point fold sees one Assign per crossing); moves within a
  /// partition stay O(1). The caller must keep schedule-changing events
  /// outside the span (the engine splits spans at event arcs).
  void OnTaxiAdvanced(const TaxiState& taxi, size_t from_pos, size_t to_pos);

  /// Registers a ride request in the mobility clustering (affects general
  /// vectors); call when the request enters the system.
  void AddRequest(const RideRequest& request);
  /// Removes a request (completed or rejected).
  void RemoveRequest(RequestId id);

  /// One entry of a partition taxi list.
  struct Arrival {
    Seconds time = 0.0;
    TaxiId taxi = kInvalidTaxi;
  };

  /// Taxis indexed in partition p with their first arrival time there,
  /// sorted ascending by arrival (paper Sec. IV-B3) so scans can stop at
  /// the first entry beyond a deadline.
  const std::vector<Arrival>& PartitionTaxis(PartitionId p) const {
    return partition_taxis_[p];
  }

  /// Whether taxi `id` is listed in partition p (test helper).
  bool PartitionContains(PartitionId p, TaxiId id) const;

  /// Best direction-compatible cluster for a probe vector,
  /// kInvalidCluster if none.
  ClusterId FindCluster(const MobilityVector& probe) const;

  /// Appends the busy taxis in the given mobility cluster to `out` (a
  /// caller-owned buffer, so dispatch allocates nothing per request).
  void AppendClusterTaxis(ClusterId cluster, std::vector<TaxiId>* out) const;
  /// Appends the busy taxis across every cluster whose general vector
  /// passes lambda against the probe (union of direction-compatible
  /// clusters).
  void AppendCompatibleClusterTaxis(const MobilityVector& probe,
                                    std::vector<TaxiId>* out) const;

  const MobilityClustering& clustering() const { return clustering_; }

  size_t MemoryBytes() const;

 private:
  static int64_t TaxiKey(TaxiId id) { return id; }
  static int64_t RequestKey(RequestId id) { return -(id + 2); }

  void RemoveTaxiPartitions(TaxiId id);

  /// ReindexTaxi evaluated as of route position `pos`: location is
  /// route[pos], the route scan starts there, and the T_mp horizon is
  /// anchored at `now`. ReindexTaxi delegates with pos = taxi.route_pos.
  void ReindexTaxiAt(const TaxiState& taxi, size_t pos, Seconds now);

  const RoadNetwork& network_;
  const MapPartitioning& partitioning_;

  /// One recorded membership: the partition a taxi is listed in plus the
  /// arrival time its entry carries — the binary-search key into that
  /// partition's sorted Arrival list at removal time.
  struct Membership {
    PartitionId partition = 0;
    Seconds time = 0.0;
  };

  std::vector<std::vector<Arrival>> partition_taxis_;
  /// Memberships of each indexed taxi, in insertion order (the current
  /// partition first, then route partitions by first arrival). Dense by
  /// taxi id, grown on demand; an empty inner vector means "not indexed".
  /// Reindexing clears and refills the taxi's slot in place, so the
  /// steady-state reindex churn of a large fleet allocates nothing.
  std::vector<std::vector<Membership>> taxi_partitions_;
  MobilityClustering clustering_;
};

}  // namespace mtshare

#endif  // MTSHARE_MATCHING_TAXI_INDEX_H_
