#ifndef MTSHARE_CORE_MTSHARE_SYSTEM_H_
#define MTSHARE_CORE_MTSHARE_SYSTEM_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/system_config.h"
#include "demand/request_generator.h"
#include "matching/mt_share.h"
#include "matching/no_sharing.h"
#include "matching/pgreedy_dp.h"
#include "matching/t_share.h"
#include "sim/engine.h"

namespace mtshare {

/// Which matching scheme a run uses (the paper's compared schemes,
/// Sec. V-A2).
enum class SchemeKind {
  kNoSharing,
  kTShare,
  kPGreedyDp,
  kMtShare,
  kMtSharePro,
};

const char* SchemeName(SchemeKind kind);

/// Inverse of SchemeName: parses a scheme from its display name or the CLI
/// spelling ("mt-share", "pgreedy-dp", ...). Case-insensitive. Returns
/// nullopt for unknown names. ParseScheme(SchemeName(k)) == k for every k.
std::optional<SchemeKind> ParseScheme(std::string_view name);

/// Everything that describes one simulation run. The primary entry point
/// RunScenario(const ScenarioSpec&) consumes this; invalid combinations
/// come back as Status instead of dying.
struct ScenarioSpec {
  SchemeKind scheme = SchemeKind::kMtShare;
  /// The pre-materialized request stream, sorted by release time with ids
  /// dense from 0. Non-owning: the caller's vector must outlive the run
  /// (scenarios are reused across many runs; copying thousands of requests
  /// per sweep cell would dominate small runs). Internally wrapped in a
  /// VectorRequestSource; exactly one of `requests` / `source` must be
  /// set.
  const std::vector<RideRequest>* requests = nullptr;
  /// Streaming ingest (DESIGN.md §12): requests are pulled from this
  /// source instead of a vector. Non-owning and single-pass — the source
  /// must outlive the run and is consumed by it; build a fresh source per
  /// run. Sources self-validate (ordering, dense ids) and their failure
  /// status is returned after the run.
  RequestSource* source = nullptr;
  /// Batch-window ingest Δt in simulated milliseconds: collect arrivals
  /// for Δt after the first pending release, dispatch the batch at window
  /// close. 0 makes each request a batch of one, dispatched before the
  /// next request is pulled.
  double batch_window_ms = 0.0;
  /// Admission cap on the pending dispatch queue (0 = unbounded). With a
  /// batch window, online arrivals past the cap are shed unserved
  /// (Metrics::serve.shed).
  int64_t max_queue = 0;
  /// Decision observer: called with the final record of every dispatch
  /// decision, served encounter, and shed request (mtshare_serve streams
  /// its response lines from here). Null = disabled.
  std::function<void(const RideRequest&, const RequestRecord&)> on_decision;
  int32_t num_taxis = 0;
  /// Controls initial taxi placement.
  uint64_t fleet_seed = 1;
  /// Enables offline-request encounters (street hails, Sec. IV-C2).
  bool serve_offline = true;
  /// Former worker-thread count, kept only so existing callers still
  /// compile. Every run is single-threaded; only Validate() reads it, and
  /// still requires it to be in [0, 1024].
  int32_t num_threads = 1;
  /// Collects the per-phase dispatch-time breakdown (Metrics::phases,
  /// surfaced in run reports). A handful of steady_clock reads per
  /// dispatch; set false to shave even that from latency-critical runs.
  bool collect_phase_timing = true;

  /// OK, or the first violated constraint.
  Status Validate() const;
};

/// Top-level facade: builds the whole mT-Share stack (map partitioning,
/// landmark graph, transition statistics, distance oracle) from a road
/// network and historical trips, then runs request streams under any of
/// the compared schemes. One instance can run many scenarios; each run
/// starts from a fresh fleet.
///
/// Examples, benches and mtshare_sim build a system and its scenario with
/// CreateScenarioSystem (below), then run it:
///
///   auto built = CreateScenarioSystem(network, demand, scenario_options,
///                                     config);
///   if (!built.ok()) { /* handle built.status() */ }
///   ScenarioSpec spec;
///   spec.scheme = SchemeKind::kMtShare;
///   spec.requests = &built.value().scenario.requests;
///   spec.num_taxis = 300;
///   Result<Metrics> m = built.value().system->RunScenario(spec);
class MTShareSystem {
 public:
  /// The only way to build a system: validates the config and returns
  /// InvalidArgument on a bad one, else builds the indexes.
  static Result<std::unique_ptr<MTShareSystem>> Create(
      const RoadNetwork& network, const std::vector<OdPair>& historical_trips,
      const SystemConfig& config);

  /// Runs one scenario with a fresh fleet on the calling thread. The only
  /// entry point (the old positional overload is gone): validates the spec
  /// (including request ordering). Vector and streaming ingest share one
  /// engine path, so a StreamRequestSource fed the serialized log of
  /// spec.requests produces byte-identical decision metrics. Concurrent
  /// calls on one system are safe: each run owns its fleet, dispatcher
  /// and engine, and shares only the read-only indexes and the oracle.
  Result<Metrics> RunScenario(const ScenarioSpec& spec);

  /// Creates a dispatcher bound to `fleet` on the system's oracle
  /// (advanced use: custom engines).
  std::unique_ptr<Dispatcher> MakeDispatcher(SchemeKind scheme,
                                             std::vector<TaxiState>* fleet);

  /// The contraction hierarchy that dispatchers on `oracle` sweep last-stop
  /// buckets over: the oracle's own CH on the CH backend, null on the
  /// exact table, where pickup reachability is a table read (DESIGN.md
  /// §14) although the oracle owns a hierarchy too.
  const ContractionHierarchy* BucketSearchCh(DistanceOracle* oracle) const {
    return oracle != nullptr && oracle->backend() == OracleBackend::kCh
               ? oracle->ch()
               : nullptr;
  }

  const RoadNetwork& network() const { return network_; }
  const MapPartitioning& partitioning() const { return partitioning_; }
  const LandmarkGraph& landmarks() const { return *landmarks_; }
  const TransitionModel& transitions() const { return transitions_; }
  DistanceOracle& oracle() { return *oracle_; }
  const SystemConfig& config() const { return config_; }

  /// Overrides the matching parameters for subsequent runs without
  /// rebuilding partitions (gamma/lambda/stretch sweeps).
  void set_matching(const MatchingConfig& matching) {
    config_.matching = matching;
  }
  /// Overrides the fleet capacity for subsequent runs.
  void set_taxi_capacity(int32_t capacity) { config_.taxi_capacity = capacity; }

  /// Resident bytes of the shared mobility structures (partitioning +
  /// landmark graph + transition statistics) — part of the Table IV
  /// accounting.
  size_t SharedIndexMemoryBytes() const;

 private:
  /// Builds the indexes from a config Create has validated.
  MTShareSystem(const RoadNetwork& network,
                const std::vector<OdPair>& historical_trips,
                const SystemConfig& config);

  const RoadNetwork& network_;
  SystemConfig config_;
  MapPartitioning partitioning_;
  std::unique_ptr<LandmarkGraph> landmarks_;
  TransitionModel transitions_;
  std::unique_ptr<DistanceOracle> oracle_;
  /// Seconds each construction step took; RunScenario copies them into
  /// Metrics::setup.
  SetupStats setup_;
};

/// A system and the scenario it is evaluated on.
struct ScenarioSystem {
  std::unique_ptr<MTShareSystem> system;
  Scenario scenario;
};

/// Builds a system and its scenario the way the paper evaluates mT-Share
/// (Sec. V-A1): the mobility statistics train on historical trips and the
/// requests come from a window of the same demand. Draws the history once
/// on Rng(options.seed), builds the system on it with MTShareSystem::Create,
/// then draws the window's requests from the same Rng, priced on the
/// system's oracle. The scenario equals MakeScenario's on an oracle with
/// config.oracle's settings, bit for bit. Returns options.Validate()'s
/// status on bad scenario options, before building anything, and Create's
/// on a bad config; `network` must outlive the system.
Result<ScenarioSystem> CreateScenarioSystem(const RoadNetwork& network,
                                            const DemandModel& demand,
                                            const ScenarioOptions& options,
                                            const SystemConfig& config);

}  // namespace mtshare

#endif  // MTSHARE_CORE_MTSHARE_SYSTEM_H_
