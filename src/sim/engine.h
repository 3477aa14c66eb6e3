#ifndef MTSHARE_SIM_ENGINE_H_
#define MTSHARE_SIM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <set>
#include <unordered_map>
#include <vector>

#include "matching/dispatcher.h"
#include "sim/metrics.h"
#include "spatial/grid_index.h"

namespace mtshare {

class RequestSource;

struct EngineOptions {
  /// Enables offline-request encounters for schemes that support them.
  bool serve_offline = true;
  /// A passing driver notices a street-hailing passenger within this
  /// distance of the taxi's current vertex (vertex-exact would require the
  /// taxi to drive over the exact corner the passenger stands on).
  double encounter_radius_m = 200.0;
  /// Batch-window ingest discipline Δt, simulated milliseconds (DESIGN.md
  /// §12): arrivals are collected from the first pending release for Δt and
  /// dispatched together when the window closes. <= 0 makes each request a
  /// batch of one, dispatched at its own release boundary before the next
  /// request is pulled.
  double batch_window_ms = 0.0;
  /// Admission cap on the pending dispatch queue (0 = unbounded; only
  /// meaningful with a batch window). Online requests arriving while the
  /// queue is full are shed: registered in the metrics and reported to the
  /// decision observer, but never dispatched.
  int64_t max_queue = 0;
  /// Decision observer: invoked with the final record of every online
  /// dispatch decision, every served offline encounter, and every shed
  /// request — the hook mtshare_serve streams response lines from. Null
  /// disables it.
  std::function<void(const RideRequest&, const RequestRecord&)> on_decision;
};

/// Event-driven simulation of a taxi fleet under one matching scheme.
/// Requests arrive in release order; taxis move along their committed
/// routes at vertex granularity; pickups/dropoffs fire at their planned
/// times; offline requests are discovered when a taxi reaches their origin
/// vertex while they wait. Single-threaded by design (response-time
/// measurements stay clean).
///
/// At every request boundary the engine pops the taxis whose next
/// route-arc arrival is due from a min-heap and advances each of them,
/// batching its index updates per advancement span (DESIGN.md §9). The
/// whole fleet is current before any dispatcher code reads it.
class SimulationEngine {
 public:
  /// `fleet` is owned by the caller (the dispatcher reads it); the engine
  /// mutates it while running.
  SimulationEngine(const RoadNetwork& network, Dispatcher* dispatcher,
                   std::vector<TaxiState>* fleet,
                   const EngineOptions& options);

  /// Runs a pulled request stream (sorted by release time, ids dense from
  /// 0 — sources self-validate; the engine CHECKs) to completion and
  /// returns the collected metrics. The source is consumed. One ingest
  /// loop collects arrivals per batch window and dispatches each batch at
  /// window close; a zero window makes every request its own batch.
  Metrics Run(RequestSource& source);

  /// Vector convenience wrapper: replays `requests` through a
  /// VectorRequestSource — byte-identical to the historical eager loop.
  Metrics Run(const std::vector<RideRequest>& requests);

 private:
  /// One heap entry: the absolute arrival time of `taxi`'s next route arc.
  /// Entries are invalidated lazily — `gen` must match taxi_gen_[taxi] or
  /// the entry is stale (the taxi was re-armed after a new plan).
  struct PendingArc {
    Seconds time = 0.0;
    TaxiId taxi = kInvalidTaxi;
    uint64_t gen = 0;
  };
  struct PendingArcLater {
    bool operator()(const PendingArc& a, const PendingArc& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.taxi > b.taxi;
    }
  };

  /// Advances the fleet to `now`: pops due heap entries, advances those
  /// taxis (id order, each fully), then offers cruises to the idle
  /// routeless set.
  void AdvanceTo(Seconds now);
  /// Walks one taxi's route up to `now`, batching dispatcher index updates
  /// per advancement span; spans split at schedule events and encounter
  /// probes so order-sensitive indexes observe the exact per-arc sequence.
  void AdvanceTaxi(TaxiState& taxi, Seconds now);
  /// Moves the taxi across its next route arc (odometer + position).
  void StepArc(TaxiState& taxi);
  /// Refreshes the heap entry for a taxi whose route/position changed.
  void RearmTaxi(const TaxiState& taxi);
  /// Keeps the cruise-offer candidate set (idle, no route) current.
  void UpdateIdleSet(const TaxiState& taxi);
  /// Extends the drain horizon to cover a freshly committed plan's route.
  void NoteCommit(const TaxiState& taxi);
  /// Appends one pulled request to the run state (record + lookup tables).
  void Ingest(const RideRequest& request);
  /// Advances to the window close and dispatches the collected batch
  /// (hailers registered first, then the online queue in release order).
  void FlushBatch(std::vector<RequestId>* queue,
                  std::vector<RequestId>* hails, Seconds when);
  /// Registers an offline request as a waiting street hailer.
  void RegisterHailer(const RideRequest& request);
  /// Dispatches one online request at `now` and applies the outcome.
  void DispatchOne(const RideRequest& request, Seconds now);
  /// Applies an assigned outcome for `request`, the one commit path for
  /// online dispatches and offline encounters alike: records the
  /// assignment, installs the plan, executes events due at once, notifies
  /// the dispatcher and extends the drain horizon. The caller re-arms the
  /// taxi. Returns the committed taxi.
  TaxiState& Commit(const RideRequest& request, DispatchOutcome outcome,
                    Seconds now);
  /// Executes due schedule events while the taxi sits at its location.
  void ExecuteDueEvents(TaxiState& taxi);
  void HandlePickup(TaxiState& taxi, const ScheduleEvent& event,
                    Seconds when);
  void HandleDropoff(TaxiState& taxi, const ScheduleEvent& event,
                     Seconds when);
  void SettleEpisodeFor(TaxiState& taxi);
  void CheckOfflineEncounters(TaxiState& taxi, Seconds now);

  const RoadNetwork& network_;
  Dispatcher* dispatcher_;
  std::vector<TaxiState>* fleet_;
  EngineOptions options_;
  /// serve_offline, and the scheme takes part in offline serving: hailers
  /// are registered, probed and waited for, and idle taxis may cruise.
  bool serves_offline_ = false;
  Metrics metrics_;

  /// Request stream by id for lookups (offline encounters, completion).
  std::vector<RideRequest> requests_;
  /// Waiting offline requests indexed by every vertex within the encounter
  /// radius of their origin.
  std::unordered_map<VertexId, std::vector<RequestId>> waiting_offline_;
  /// Offline request lifecycle: 0 = waiting, 1 = served or expired.
  std::vector<uint8_t> offline_done_;
  /// Vertex snapping index for encounter-radius registration (built only
  /// when serves_offline_).
  std::unique_ptr<GridIndex> snap_;

  // --- advancement state ---
  std::priority_queue<PendingArc, std::vector<PendingArc>, PendingArcLater>
      heap_;
  /// Per-taxi generation counters for lazy heap invalidation.
  std::vector<uint64_t> taxi_gen_;
  /// Idle taxis without a route — the cruise-offer candidates — ordered by
  /// id so the cruise sampler's rng stream is deterministic.
  std::set<TaxiId> idle_routeless_;
  /// Scratch buffers (due taxis of one advancement, offer snapshot).
  std::vector<TaxiId> due_;
  std::vector<TaxiId> offer_buf_;
  /// Latest route tail among committed plans that carry events; the drain
  /// target must reach it so every passenger is delivered.
  Seconds commit_horizon_ = 0.0;
  /// Latest ingested release time (the drain must reach it).
  Seconds last_release_ = 0.0;
};

}  // namespace mtshare

#endif  // MTSHARE_SIM_ENGINE_H_
