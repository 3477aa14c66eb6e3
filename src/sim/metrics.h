#ifndef MTSHARE_SIM_METRICS_H_
#define MTSHARE_SIM_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"
#include "demand/request.h"
#include "matching/dispatcher.h"
#include "matching/phase_timers.h"

namespace mtshare {

/// Per-request lifecycle record kept by the simulation engine.
struct RequestRecord {
  RequestId id = kInvalidRequest;
  bool offline = false;
  bool assigned = false;
  bool completed = false;
  Seconds release_time = 0.0;
  Seconds direct_cost = 0.0;
  Seconds pickup_time = -1.0;
  Seconds dropoff_time = -1.0;
  TaxiId taxi = kInvalidTaxi;
  /// Dropped by the admission cap before reaching the dispatcher (the
  /// request was registered but never evaluated; see ServeStats::shed).
  bool shed = false;
  /// Wall-clock milliseconds the dispatcher spent on this request.
  double response_ms = 0.0;
  /// Candidate taxis examined at dispatch (paper Table III).
  int32_t candidates = 0;
  /// Settled fares (valid once completed and the episode settled).
  double regular_fare = 0.0;
  double shared_fare = 0.0;
};

/// Counters describing how the simulation core advanced the fleet.
struct EngineStats {
  /// Heap entries popped while advancing to request boundaries (stale
  /// generation entries included — they are popped and discarded).
  int64_t heap_pops = 0;
  /// Route arcs stepped across the fleet.
  int64_t arcs_stepped = 0;
  /// Request release boundaries (and batch-window closes) the fleet was
  /// advanced to.
  int64_t boundaries = 0;
  /// Fixed-point iterations of the end-of-run drain (each round extends
  /// the target to the latest committed route tail).
  int64_t drain_rounds = 0;
};

/// Ingest/admission counters of the streaming dispatch path — the run
/// report's schema-5 "serve" block. Every run populates them: the classic
/// vector replay is a batch window of 0 ms with one request per dispatch
/// and nothing shed.
struct ServeStats {
  /// Configured batch window Δt, simulated milliseconds (0 = per-request
  /// dispatch at each release boundary).
  double batch_window_ms = 0.0;
  /// Batch-window flushes (0 in per-request mode).
  int64_t batches = 0;
  /// Online requests handed to the dispatcher.
  int64_t admitted = 0;
  /// Online requests dropped by the admission cap (EngineOptions::max_queue)
  /// without ever reaching the dispatcher.
  int64_t shed = 0;
  /// Peak depth of the pending dispatch queue (1 in per-request mode, the
  /// largest batch otherwise; 0 when no online request arrived).
  int64_t queue_depth = 0;
};

/// Wall-clock seconds of each step of building the system that ran — the
/// run report's schema-10 "setup" block. A system pays them once, in
/// MTShareSystem's constructor, and every run of it reports the same
/// figures; runs that bypass RunScenario report zeros.
struct SetupStats {
  /// Map partitioning: bipartite k-means (Sec. IV-B1) or the uniform grid.
  double partition_s = 0.0;
  /// The distance oracle, its contraction hierarchy included.
  double oracle_s = 0.0;
  /// The landmark graph's rows, filled from the oracle's hierarchy.
  double landmarks_s = 0.0;
  /// Transition statistics over the final partitions.
  double transitions_s = 0.0;
};

/// Aggregated results of one simulation run — the quantities the paper's
/// evaluation section reports.
class Metrics {
 public:
  void Register(const RideRequest& request);
  RequestRecord& record(RequestId id) { return records_[id]; }
  const std::vector<RequestRecord>& records() const { return records_; }

  // --- paper metrics (Sec. V-A3) ---
  /// Requests delivered before their deadlines.
  int32_t ServedRequests() const;
  int32_t ServedOnline() const;
  int32_t ServedOffline() const;
  int32_t TotalRequests() const {
    return static_cast<int32_t>(records_.size());
  }
  /// Mean dispatcher processing time per admitted *online* request, ms
  /// (shed requests never reached the dispatcher).
  double MeanResponseMs() const;
  /// Mean extra in-vehicle time vs. the direct trip, minutes (served only).
  double MeanDetourMinutes() const;
  /// Mean pickup wait, minutes (served only; offline requests wait from
  /// release to encounter).
  double MeanWaitingMinutes() const;
  /// Mean candidate-set size over admitted online requests (Table III).
  double MeanCandidates() const;

  // --- payment metrics (Fig. 19) ---
  /// Mean relative fare saving over served requests.
  double MeanFareSaving() const;

  // --- observability (run report) ---
  /// Rebuilds the latency/quality histograms below from the per-request
  /// records. The engine calls this at run end; callers that mutate
  /// records afterwards can call it again.
  void FinalizeDistributions();
  /// Dispatcher wall-clock over every measured decision: online dispatches
  /// plus offline encounter attempts (served and rejected). This is the
  /// total the per-phase breakdown is reconciled against.
  double TotalDispatchMs() const;
  /// Per-request dispatcher latency, ms (admitted online + served
  /// offline).
  const LatencyHistogram& response_hist() const { return response_hist_; }
  /// Pickup wait, minutes, served requests.
  const LatencyHistogram& waiting_hist() const { return waiting_hist_; }
  /// Extra in-vehicle time vs. direct, minutes, served requests.
  const LatencyHistogram& detour_hist() const { return detour_hist_; }
  /// Candidate-set sizes over admitted online requests (Table III tails).
  const LatencyHistogram& candidates_hist() const { return candidates_hist_; }

  /// Index memory reported by the dispatcher at run end (Table IV).
  size_t index_memory_bytes = 0;
  /// Distance-oracle traffic during the run (deltas of the shared oracle's
  /// counters; meaningful when runs do not overlap). A miss filled the
  /// source's exact-table row with one PhastRow sweep; a hit read a
  /// resident row.
  int64_t oracle_queries = 0;
  int64_t oracle_row_hits = 0;
  int64_t oracle_row_misses = 0;
  /// Resolved backend of the oracle that served the run ("exact" or
  /// "ch"); empty when the run bypassed RunScenario.
  std::string oracle_backend;
  /// Total driver income accumulated across the fleet.
  double total_driver_income = 0.0;
  /// Wall-clock seconds of the whole run (paper Fig. 21a).
  double execution_seconds = 0.0;
  /// Per-phase dispatch-time breakdown harvested from the dispatcher at
  /// run end (candidate search / filter / insertion / routing).
  PhaseTimers phases;
  /// Routing counters harvested from the dispatcher at run end:
  /// lower-bound-pruned candidates, fallback queries, CH and
  /// candidate-search counters.
  BatchRoutingStats routing;
  /// Dispatcher time spent probing offline encounters that were *not*
  /// served — measured by the engine but attached to no request record.
  double offline_probe_ms = 0.0;
  /// Simulation-core counters (heap pops, arcs stepped, ...).
  EngineStats engine;
  /// Streaming-ingest counters (batch windows, admission, backpressure).
  ServeStats serve;
  /// Construction time of the system that ran, per step.
  SetupStats setup;

 private:
  std::vector<RequestRecord> records_;
  LatencyHistogram response_hist_ = LatencyHistogram::ForLatencyMs();
  LatencyHistogram waiting_hist_ = LatencyHistogram::ForMinutes();
  LatencyHistogram detour_hist_ = LatencyHistogram::ForMinutes();
  LatencyHistogram candidates_hist_ = LatencyHistogram::ForCounts();
};

}  // namespace mtshare

#endif  // MTSHARE_SIM_METRICS_H_
