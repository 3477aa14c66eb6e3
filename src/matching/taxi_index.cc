#include "matching/taxi_index.h"

#include <algorithm>

#include "common/logging.h"

namespace mtshare {

MtShareTaxiIndex::MtShareTaxiIndex(const RoadNetwork& network,
                                   const MapPartitioning& partitioning,
                                   double lambda)
    : network_(network),
      partitioning_(partitioning),
      partition_taxis_(partitioning.num_partitions()),
      clustering_(lambda) {}

void MtShareTaxiIndex::RemoveTaxiPartitions(TaxiId id) {
  if (static_cast<size_t>(id) >= taxi_partitions_.size()) return;
  for (const Membership& m : taxi_partitions_[id]) {
    auto& list = partition_taxis_[m.partition];
    // The list is arrival-sorted and the membership recorded the entry's
    // arrival time: binary-search to the tie range instead of scanning the
    // whole list from the front.
    auto pos = std::lower_bound(
        list.begin(), list.end(), m.time,
        [](const Arrival& a, Seconds t) { return a.time < t; });
    for (; pos != list.end() && pos->time <= m.time; ++pos) {
      if (pos->taxi == id) {
        list.erase(pos);
        break;
      }
    }
  }
  // clear() keeps the slot's capacity: the subsequent reindex refills it
  // without touching the allocator.
  taxi_partitions_[id].clear();
}

bool MtShareTaxiIndex::PartitionContains(PartitionId p, TaxiId id) const {
  for (const Arrival& a : partition_taxis_[p]) {
    if (a.taxi == id) return true;
  }
  return false;
}

void MtShareTaxiIndex::ReindexTaxi(const TaxiState& taxi, Seconds now) {
  ReindexTaxiAt(taxi, taxi.route_pos, now);
}

void MtShareTaxiIndex::ReindexTaxiAt(const TaxiState& taxi, size_t pos,
                                     Seconds now) {
  // The taxi's location as of route position `pos` — falls back to the
  // stored location for drained/empty routes (ReindexTaxi delegation).
  VertexId location =
      pos < taxi.route.size() ? taxi.route.vertex(pos) : taxi.location;
  if (static_cast<size_t>(taxi.id) >= taxi_partitions_.size()) {
    taxi_partitions_.resize(taxi.id + 1);
  }
  RemoveTaxiPartitions(taxi.id);
  std::vector<Membership>& memberships = taxi_partitions_[taxi.id];
  auto add = [&](PartitionId p, Seconds arrival) {
    // Memberships are visited in increasing arrival order, so the first
    // insertion carries the earliest arrival. All of this taxi's old
    // entries were just removed, so a duplicate can only come from this
    // call — check the (short) local membership list, not the partition's.
    for (const Membership& existing : memberships) {
      if (existing.partition == p) return;
    }
    auto& list = partition_taxis_[p];
    Arrival entry{arrival, taxi.id};
    auto pos = std::upper_bound(list.begin(), list.end(), arrival,
                                [](Seconds t, const Arrival& a) {
                                  return t < a.time;
                                });
    list.insert(pos, entry);
    memberships.push_back(Membership{p, arrival});
  };
  // Current partition, at the current time.
  add(partitioning_.PartitionOf(location), now);
  // Partitions along the committed route, first-arrival within T_mp.
  for (size_t i = pos; i < taxi.route.size(); ++i) {
    Seconds arrival = taxi.route.time(i);
    if (arrival > now + kTmp) break;
    add(partitioning_.PartitionOf(taxi.route.vertex(i)), arrival);
  }

  // Mobility cluster: busy taxis only (Sec. IV-B2 excludes empty taxis).
  MobilityVector mv = ScheduleMobilityVector(taxi.schedule, network_, location);
  if (mv.Length() > 0.0) {
    clustering_.Assign(TaxiKey(taxi.id), mv);
  } else {
    clustering_.Remove(TaxiKey(taxi.id));
  }
}

void MtShareTaxiIndex::OnTaxiAdvanced(const TaxiState& taxi, size_t from_pos,
                                      size_t to_pos) {
  if (taxi.Idle()) {
    // One reindex at the span's end: a reindex rebuilds the partition
    // entries wholesale and the clustering Remove is idempotent, so
    // per-arc reindexes would leave the same state.
    Seconds now = to_pos < taxi.route.size() ? taxi.route.time(to_pos)
                                             : taxi.location_time;
    ReindexTaxiAt(taxi, to_pos, now);
    return;
  }
  // Busy taxis: the crossing check runs at every stepped position. A
  // crossing must reindex *as of that position* — the route scan start and
  // the T_mp horizon both depend on where the crossing happened, so
  // collapsing to one span-end reindex would record different arrivals.
  // memberships.front() is the current-partition entry by construction.
  for (size_t pos = from_pos + 1; pos <= to_pos; ++pos) {
    if (static_cast<size_t>(taxi.id) >= taxi_partitions_.size() ||
        taxi_partitions_[taxi.id].empty() ||
        taxi_partitions_[taxi.id].front().partition !=
            partitioning_.PartitionOf(taxi.route.vertex(pos))) {
      ReindexTaxiAt(taxi, pos, taxi.route.time(pos));
    }
  }
}

void MtShareTaxiIndex::AddRequest(const RideRequest& request) {
  clustering_.Assign(RequestKey(request.id),
                     MobilityVector{network_.coord(request.origin),
                                    network_.coord(request.destination)});
}

void MtShareTaxiIndex::RemoveRequest(RequestId id) {
  clustering_.Remove(RequestKey(id));
}

ClusterId MtShareTaxiIndex::FindCluster(const MobilityVector& probe) const {
  return clustering_.FindBestCluster(probe);
}

void MtShareTaxiIndex::AppendClusterTaxis(ClusterId cluster,
                                          std::vector<TaxiId>* out) const {
  if (cluster == kInvalidCluster) return;
  for (int64_t key : clustering_.Members(cluster)) {
    if (key >= 0) out->push_back(static_cast<TaxiId>(key));
  }
}

void MtShareTaxiIndex::AppendCompatibleClusterTaxis(
    const MobilityVector& probe, std::vector<TaxiId>* out) const {
  for (ClusterId c : clustering_.FindCompatibleClusters(probe)) {
    for (int64_t key : clustering_.Members(c)) {
      if (key >= 0) out->push_back(static_cast<TaxiId>(key));
    }
  }
}

size_t MtShareTaxiIndex::MemoryBytes() const {
  size_t bytes = clustering_.MemoryBytes();
  for (const auto& m : partition_taxis_) {
    bytes += m.size() * sizeof(Arrival);
  }
  // Count non-empty slots the way the previous node-based map accounting
  // did (payload + per-entry overhead), so reported index memory stays
  // comparable across the storage change.
  for (const auto& memberships : taxi_partitions_) {
    if (memberships.empty()) continue;
    bytes += memberships.size() * sizeof(Membership) + 24;
  }
  return bytes;
}

}  // namespace mtshare
