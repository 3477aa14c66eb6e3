#ifndef MTSHARE_COMMON_TYPES_H_
#define MTSHARE_COMMON_TYPES_H_

#include <cstdint>
#include <limits>
#include <utility>

namespace mtshare {

/// Identifier of a vertex in a road network. Vertices are dense 0..N-1.
using VertexId = int32_t;
/// Identifier of an edge in a road network. Edges are dense 0..M-1.
using EdgeId = int32_t;
/// Identifier of a taxi registered with the system.
using TaxiId = int32_t;
/// Identifier of a ride request.
using RequestId = int64_t;
/// Identifier of a map partition in a MapPartitioning (made by
/// GridPartition or BipartitePartition).
using PartitionId = int32_t;
/// Identifier of a mobility cluster.
using ClusterId = int32_t;

/// Simulation time and travel costs, in seconds since scenario start.
/// The paper (Sec. III-A) treats travel time and distance interchangeably
/// under a constant speed; we standardize on seconds.
using Seconds = double;

/// An origin-destination vertex pair of a historical taxi trip; the only
/// signal the transition statistics consume.
using OdPair = std::pair<VertexId, VertexId>;

inline constexpr VertexId kInvalidVertex = -1;
inline constexpr TaxiId kInvalidTaxi = -1;
inline constexpr RequestId kInvalidRequest = -1;
inline constexpr PartitionId kInvalidPartition = -1;
inline constexpr ClusterId kInvalidCluster = -1;
inline constexpr Seconds kInfiniteCost = std::numeric_limits<double>::infinity();

}  // namespace mtshare

#endif  // MTSHARE_COMMON_TYPES_H_
