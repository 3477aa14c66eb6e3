#ifndef MTSHARE_ROUTING_DISTANCE_ORACLE_H_
#define MTSHARE_ROUTING_DISTANCE_ORACLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "graph/road_network.h"
#include "routing/contraction_hierarchy.h"
#include "routing/upward_search.h"

namespace mtshare {

/// Which cost backend the oracle runs on. kAuto resolves by graph size:
/// dense exact table when it fits (<= kMaxExactVertices), contraction
/// hierarchy otherwise.
enum class OracleBackend {
  kAuto = 0,
  kExact,
  kCh,
};

/// kAuto's threshold: networks up to this many vertices get a dense
/// all-pairs table (the paper precomputes and caches all-pairs shortest
/// paths, Sec. V-A4); larger networks use the contraction hierarchy.
inline constexpr int32_t kMaxExactVertices = 4200;

/// Lower-case stable name ("auto", "exact", "ch").
const char* OracleBackendName(OracleBackend backend);

/// Parses a backend name (as accepted by mtshare_sim --oracle=). Returns
/// false on unknown names, leaving *out untouched.
bool ParseOracleBackend(std::string_view name, OracleBackend* out);

/// The CH backend's point-query counters, summed over the oracle's
/// search pool.
struct ChQueryStats {
  /// Point queries answered (same-vertex pairs excluded).
  int64_t point_queries = 0;
  /// Vertices reached by the point queries' upward searches, forward and
  /// backward, each run to exhaustion.
  int64_t upward_settled = 0;
};

struct OracleOptions {
  /// Backend selection; see OracleBackend.
  OracleBackend backend = OracleBackend::kAuto;
};

/// Shortest-path *cost* oracle with O(1) amortized queries, mirroring the
/// paper's assumption that "the shortest path query will take O(1) time"
/// (Sec. IV-C). Both backends own one contraction hierarchy, built in the
/// constructor: the exact dense table fills its rows from it by PhastRow,
/// the CH backend answers every query on it. The two are bit-identical in
/// the costs they return (arc costs are dyadic, see QuantizeTravelCost).
/// Every query is a point query, Cost(): one row read on the exact table,
/// so an insertion leg costs O(1) as the paper assumes (CH insertion legs
/// meet stored labels instead, LastStopBuckets). On the CH a point query
/// is a forward upward search from the source and a backward one from the
/// target, both run to exhaustion, met at their common vertices. Costs
/// only — use DijkstraSearch when the vertex sequence is needed.
///
/// Thread-safe: one system's oracle serves every RunScenario call on it,
/// and those runs may execute concurrently (the concurrency tests start
/// several on one system).
/// Exact mode fills each row exactly once behind striped mutexes and
/// publishes it with an atomic flag; CH mode checks forward/backward
/// search pairs in and out of a mutex-guarded pool (one pair per
/// concurrently querying thread). Counters are atomics /
/// pool-mutex-guarded sums and surface through Metrics.
class DistanceOracle {
 public:
  DistanceOracle(const RoadNetwork& network, const OracleOptions& options = {});

  /// Travel seconds from source to target (kInfiniteCost if unreachable).
  /// Safe to call from any thread.
  Seconds Cost(VertexId source, VertexId target);

  /// Row `source` of the exact table (its travel seconds to every vertex)
  /// when a query has already filled it, else null; always null on the CH
  /// backend. Fills nothing and ticks no counter, so a caller that falls
  /// back to its own search when the row is absent leaves every oracle
  /// counter as it was. A returned row is complete and never changes.
  /// Safe to call from any thread.
  const std::vector<Seconds>* ResidentRow(VertexId source) const;

  /// Resolved backend (never kAuto).
  OracleBackend backend() const { return backend_; }

  int64_t queries() const {
    return queries_.load(std::memory_order_relaxed);
  }
  /// Exact-table traffic: a hit served a query from a resident row, a miss
  /// filled the row with one forward PhastRow. (Same-vertex queries
  /// short-circuit and count toward neither; always zero in CH mode.)
  int64_t row_hits() const;
  int64_t row_misses() const;

  /// CH point-query counters (all zero outside CH mode: exact row fills
  /// tick none of them). A query is counted when its search pair returns
  /// to the pool, so read these from quiescent moments (dispatch-batch
  /// boundaries).
  ChQueryStats ch_query_stats() const;
  /// Preprocessing counters of the oracle's hierarchy (either backend).
  const ChBuildStats& ch_build_stats() const { return ch_->stats(); }

  /// The contraction hierarchy backing this oracle, on either backend.
  /// Consumers (LandmarkGraph, LastStopBuckets) may share it read-only;
  /// the hierarchy is immutable after construction and lives as long as
  /// the oracle.
  const ContractionHierarchy* ch() const { return ch_.get(); }

  /// Resident bytes of the hierarchy plus the filled table rows (exact) or
  /// the pooled search pairs (CH) — Tab. IV memory accounting.
  size_t MemoryBytes() const;

 private:
  /// One CH point query's searches: forward from the source, backward
  /// from the target.
  struct SearchPair {
    explicit SearchPair(const ContractionHierarchy& ch)
        : forward(ch), backward(ch) {}
    size_t MemoryBytes() const {
      return forward.MemoryBytes() + backward.MemoryBytes();
    }
    UpwardSearch forward;
    UpwardSearch backward;
  };

  const std::vector<Seconds>& ExactRow(VertexId source);
  Seconds ChCost(VertexId source, VertexId target);

  const RoadNetwork& network_;
  OracleBackend backend_;
  /// Both backends: the immutable hierarchy.
  std::unique_ptr<ContractionHierarchy> ch_;

  /// Exact mode: dense row-major table, filled lazily one row at a time
  /// (a fully eager fill would still be fine but wastes startup time when
  /// only part of the city is touched). `exact_filled_[v]` publishes row v
  /// with release/acquire ordering; fills serialize per mutex stripe.
  std::vector<std::vector<Seconds>> exact_rows_;
  std::unique_ptr<std::atomic<uint8_t>[]> exact_filled_;
  static constexpr int32_t kFillStripes = 64;
  std::unique_ptr<std::mutex[]> fill_mutex_;
  std::atomic<int64_t> exact_hits_{0};
  std::atomic<int64_t> exact_misses_{0};

  /// CH mode: pool of per-thread search pairs over ch_. A returned pair
  /// adds its query to ch_stats_total_ (guarded by ch_pool_mutex_).
  mutable std::mutex ch_pool_mutex_;
  std::vector<std::unique_ptr<SearchPair>> ch_pool_;
  ChQueryStats ch_stats_total_;
  size_t ch_pairs_created_ = 0;
  size_t ch_pair_bytes_max_ = 0;

  std::atomic<int64_t> queries_{0};
};

}  // namespace mtshare

#endif  // MTSHARE_ROUTING_DISTANCE_ORACLE_H_
