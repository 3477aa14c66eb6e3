#include "routing/distance_oracle.h"

#include <algorithm>

#include "common/logging.h"
#include "routing/upward_search.h"

namespace mtshare {
namespace {

OracleBackend ResolveBackend(const RoadNetwork& network,
                             const OracleOptions& options) {
  if (options.backend != OracleBackend::kAuto) return options.backend;
  return network.num_vertices() <= kMaxExactVertices
             ? OracleBackend::kExact
             : OracleBackend::kCh;
}

}  // namespace

const char* OracleBackendName(OracleBackend backend) {
  switch (backend) {
    case OracleBackend::kAuto:
      return "auto";
    case OracleBackend::kExact:
      return "exact";
    case OracleBackend::kCh:
      return "ch";
  }
  return "unknown";
}

bool ParseOracleBackend(std::string_view name, OracleBackend* out) {
  if (name == "auto") {
    *out = OracleBackend::kAuto;
  } else if (name == "exact") {
    *out = OracleBackend::kExact;
  } else if (name == "ch") {
    *out = OracleBackend::kCh;
  } else {
    return false;
  }
  return true;
}

DistanceOracle::DistanceOracle(const RoadNetwork& network,
                               const OracleOptions& options)
    : network_(network),
      backend_(ResolveBackend(network, options)),
      ch_(std::make_unique<ContractionHierarchy>(
          ContractionHierarchy::Build(network))) {
  if (backend_ == OracleBackend::kExact) {
    exact_rows_.resize(network.num_vertices());
    exact_filled_ =
        std::make_unique<std::atomic<uint8_t>[]>(network.num_vertices());
    for (VertexId v = 0; v < network.num_vertices(); ++v) {
      exact_filled_[v].store(0, std::memory_order_relaxed);
    }
    fill_mutex_ = std::make_unique<std::mutex[]>(kFillStripes);
  }
}

Seconds DistanceOracle::ChCost(VertexId source, VertexId target) {
  std::unique_ptr<SearchPair> pair;
  {
    std::lock_guard<std::mutex> lock(ch_pool_mutex_);
    if (!ch_pool_.empty()) {
      pair = std::move(ch_pool_.back());
      ch_pool_.pop_back();
    } else {
      ++ch_pairs_created_;
    }
  }
  if (pair == nullptr) pair = std::make_unique<SearchPair>(*ch_);
  // Both upward searches run to exhaustion (upward search spaces are tiny,
  // hundreds of vertices on road-like graphs), then meet: every shortest
  // path is an up-down path whose top vertex both reach at its exact
  // distance.
  pair->forward.Run(source, UpwardSearch::kForward, kInfiniteCost);
  pair->backward.Run(target, UpwardSearch::kBackward, kInfiniteCost);
  const Seconds cost = Meet(pair->forward, pair->backward);
  const int64_t settled = static_cast<int64_t>(
      pair->forward.reached().size() + pair->backward.reached().size());
  std::lock_guard<std::mutex> lock(ch_pool_mutex_);
  ++ch_stats_total_.point_queries;
  ch_stats_total_.upward_settled += settled;
  ch_pair_bytes_max_ = std::max(ch_pair_bytes_max_, pair->MemoryBytes());
  ch_pool_.push_back(std::move(pair));
  return cost;
}

ChQueryStats DistanceOracle::ch_query_stats() const {
  std::lock_guard<std::mutex> lock(ch_pool_mutex_);
  return ch_stats_total_;
}

const std::vector<Seconds>& DistanceOracle::ExactRow(VertexId source) {
  if (exact_filled_[source].load(std::memory_order_acquire)) {
    exact_hits_.fetch_add(1, std::memory_order_relaxed);
    return exact_rows_[source];
  }
  std::lock_guard<std::mutex> lock(fill_mutex_[source % kFillStripes]);
  if (!exact_filled_[source].load(std::memory_order_relaxed)) {
    exact_misses_.fetch_add(1, std::memory_order_relaxed);
    // PhastRow's kernel is function-local, so the search state stays on
    // this thread; each row fills once, and reusing a kernel would save
    // only its O(V) buffer setup.
    exact_rows_[source] = PhastRow(*ch_, source, UpwardSearch::kForward);
    exact_filled_[source].store(1, std::memory_order_release);
  } else {
    exact_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return exact_rows_[source];
}

const std::vector<Seconds>* DistanceOracle::ResidentRow(
    VertexId source) const {
  MTSHARE_CHECK(source >= 0 && source < network_.num_vertices());
  if (backend_ != OracleBackend::kExact ||
      !exact_filled_[source].load(std::memory_order_acquire)) {
    return nullptr;
  }
  return &exact_rows_[source];
}

Seconds DistanceOracle::Cost(VertexId source, VertexId target) {
  MTSHARE_CHECK(source >= 0 && source < network_.num_vertices());
  MTSHARE_CHECK(target >= 0 && target < network_.num_vertices());
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (source == target) return 0.0;
  if (backend_ == OracleBackend::kExact) return ExactRow(source)[target];
  return ChCost(source, target);
}

int64_t DistanceOracle::row_hits() const {
  return exact_hits_.load(std::memory_order_relaxed);
}

int64_t DistanceOracle::row_misses() const {
  return exact_misses_.load(std::memory_order_relaxed);
}

size_t DistanceOracle::MemoryBytes() const {
  size_t bytes = ch_->MemoryBytes();
  if (backend_ == OracleBackend::kExact) {
    for (VertexId v = 0; v < network_.num_vertices(); ++v) {
      if (exact_filled_[v].load(std::memory_order_acquire)) {
        bytes += exact_rows_[v].size() * sizeof(Seconds);
      }
    }
    return bytes;
  }
  std::lock_guard<std::mutex> lock(ch_pool_mutex_);
  // Every pooled pair is buffer-wise the same size; count the largest
  // observed footprint once per pair ever created.
  return bytes + ch_pairs_created_ * ch_pair_bytes_max_;
}

}  // namespace mtshare
