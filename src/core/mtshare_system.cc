#include "core/mtshare_system.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <optional>

#include "common/logging.h"
#include "common/timer.h"
#include "sim/request_source.h"

namespace mtshare {

const char* SchemeName(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kNoSharing:
      return "No-Sharing";
    case SchemeKind::kTShare:
      return "T-Share";
    case SchemeKind::kPGreedyDp:
      return "pGreedyDP";
    case SchemeKind::kMtShare:
      return "mT-Share";
    case SchemeKind::kMtSharePro:
      return "mT-Share-pro";
  }
  return "?";
}

std::optional<SchemeKind> ParseScheme(std::string_view name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "no-sharing") return SchemeKind::kNoSharing;
  if (lower == "t-share") return SchemeKind::kTShare;
  // Both the display name "pGreedyDP" and the CLI spelling "pgreedy-dp".
  if (lower == "pgreedydp" || lower == "pgreedy-dp") {
    return SchemeKind::kPGreedyDp;
  }
  if (lower == "mt-share") return SchemeKind::kMtShare;
  if (lower == "mt-share-pro") return SchemeKind::kMtSharePro;
  return std::nullopt;
}

Status ScenarioSpec::Validate() const {
  if (requests == nullptr && source == nullptr) {
    return Status::InvalidArgument(
        "ScenarioSpec.requests must be set (or a streaming "
        "ScenarioSpec.source)");
  }
  if (requests != nullptr && source != nullptr) {
    return Status::InvalidArgument(
        "ScenarioSpec.requests and ScenarioSpec.source are exclusive — "
        "set exactly one");
  }
  if (num_taxis < 1) {
    return Status::InvalidArgument("ScenarioSpec.num_taxis must be >= 1");
  }
  if (num_threads < 0 || num_threads > 1024) {
    return Status::InvalidArgument(
        "ScenarioSpec.num_threads must be in [0, 1024]");
  }
  if (!(batch_window_ms >= 0.0) || !std::isfinite(batch_window_ms)) {
    return Status::InvalidArgument(
        "ScenarioSpec.batch_window_ms must be finite and >= 0");
  }
  if (max_queue < 0) {
    return Status::InvalidArgument("ScenarioSpec.max_queue must be >= 0");
  }
  // The engine replays the stream in order and indexes records by id; the
  // old API documented "sorted with dense ids" and crashed downstream on
  // violations — the spec path reports them instead. Streaming sources
  // carry the equivalent validation themselves (their status fails on the
  // offending line).
  if (requests != nullptr) {
    for (size_t i = 0; i < requests->size(); ++i) {
      const RideRequest& r = (*requests)[i];
      if (r.id != static_cast<RequestId>(i)) {
        return Status::InvalidArgument(
            "requests must carry dense ids 0..n-1 in order");
      }
      if (i > 0 && r.release_time < (*requests)[i - 1].release_time) {
        return Status::InvalidArgument(
            "requests must be sorted by release time");
      }
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<MTShareSystem>> MTShareSystem::Create(
    const RoadNetwork& network, const std::vector<OdPair>& historical_trips,
    const SystemConfig& config) {
  MTSHARE_RETURN_NOT_OK(config.Validate());
  if (network.num_vertices() <= 0) {
    return Status::InvalidArgument("network has no vertices");
  }
  if (config.bipartite_partitioning && historical_trips.empty()) {
    return Status::InvalidArgument(
        "bipartite partitioning needs historical trips (or set "
        "bipartite_partitioning = false)");
  }
  return std::unique_ptr<MTShareSystem>(
      new MTShareSystem(network, historical_trips, config));
}

MTShareSystem::MTShareSystem(const RoadNetwork& network,
                             const std::vector<OdPair>& historical_trips,
                             const SystemConfig& config)
    : network_(network), config_(config) {
  WallTimer step;
  if (config.bipartite_partitioning) {
    BipartiteOptions opts;
    opts.kappa = config.kappa;
    opts.kt = config.kt;
    opts.seed = config.seed;
    partitioning_ = BipartitePartition(network, historical_trips, opts);
  } else {
    partitioning_ = GridPartition(network, config.kappa);
  }
  setup_.partition_s = step.ElapsedSeconds();
  // The oracle's hierarchy, built once on either backend, also yields the
  // landmark rows.
  step.Restart();
  oracle_ = std::make_unique<DistanceOracle>(network, config.oracle);
  setup_.oracle_s = step.ElapsedSeconds();
  step.Restart();
  landmarks_ =
      std::make_unique<LandmarkGraph>(network, partitioning_, *oracle_->ch());
  setup_.landmarks_s = step.ElapsedSeconds();
  step.Restart();
  transitions_ = TransitionModel::Build(
      network.num_vertices(), partitioning_.num_partitions(),
      partitioning_.vertex_partition, historical_trips);
  setup_.transitions_s = step.ElapsedSeconds();
}

Result<ScenarioSystem> CreateScenarioSystem(const RoadNetwork& network,
                                            const DemandModel& demand,
                                            const ScenarioOptions& options,
                                            const SystemConfig& config) {
  // Checked before the system is built: DrawWindowRequests dies on bad
  // options, and it runs after the expensive Create.
  MTSHARE_RETURN_NOT_OK(options.Validate());
  Rng rng(options.seed);
  ScenarioSystem built;
  built.scenario.historical_trips =
      GenerateHistoricalTrips(demand, options.num_historical_trips, rng);
  Result<std::unique_ptr<MTShareSystem>> system = MTShareSystem::Create(
      network, built.scenario.HistoricalOdPairs(), config);
  if (!system.ok()) return system.status();
  built.system = std::move(system).value();
  built.scenario.requests =
      DrawWindowRequests(demand, built.system->oracle(), options, rng);
  return built;
}

std::unique_ptr<Dispatcher> MTShareSystem::MakeDispatcher(
    SchemeKind scheme, std::vector<TaxiState>* fleet) {
  DistanceOracle* oracle = oracle_.get();
  const MatchingConfig& mc = config_.matching;
  std::unique_ptr<Dispatcher> d;
  switch (scheme) {
    case SchemeKind::kNoSharing:
      d = std::make_unique<NoSharingDispatcher>(network_, oracle, fleet, mc,
                                                *landmarks_);
      break;
    case SchemeKind::kTShare:
      d = std::make_unique<TShareDispatcher>(network_, oracle, fleet, mc,
                                             *landmarks_);
      break;
    case SchemeKind::kPGreedyDp:
      d = std::make_unique<PGreedyDpDispatcher>(network_, oracle, fleet, mc,
                                                *landmarks_);
      break;
    case SchemeKind::kMtShare:
    case SchemeKind::kMtSharePro:
      d = std::make_unique<MtShareDispatcher>(
          network_, oracle, fleet, mc, *landmarks_, partitioning_,
          transitions_, scheme == SchemeKind::kMtSharePro);
      break;
  }
  MTSHARE_CHECK(d != nullptr);
  return d;
}

Result<Metrics> MTShareSystem::RunScenario(const ScenarioSpec& spec) {
  MTSHARE_RETURN_NOT_OK(spec.Validate());
  // Vector and streaming ingest share one engine path: a pre-materialized
  // vector is just a VectorRequestSource, which makes the classic replay
  // trivially byte-identical to a streamed copy of the same log.
  std::optional<VectorRequestSource> vector_source;
  RequestSource* source = spec.source;
  if (source == nullptr) {
    vector_source.emplace(spec.requests);
    source = &*vector_source;
  }
  // The fleet starts when the first request releases; peeking does not
  // consume it. A source that fails on its very first record surfaces the
  // error through source->status() after the (empty) run.
  RideRequest first;
  Seconds start_time = source->Peek(&first) ? first.release_time : 0.0;
  std::vector<TaxiState> fleet =
      MakeFleet(network_, spec.num_taxis, config_.taxi_capacity,
                spec.fleet_seed, start_time);
  std::unique_ptr<Dispatcher> dispatcher = MakeDispatcher(spec.scheme, &fleet);
  dispatcher->EnablePhaseTiming(spec.collect_phase_timing);

  EngineOptions eopts;
  eopts.serve_offline = spec.serve_offline;
  eopts.batch_window_ms = spec.batch_window_ms;
  eopts.max_queue = spec.max_queue;
  eopts.on_decision = spec.on_decision;
  SimulationEngine engine(network_, dispatcher.get(), &fleet, eopts);

  const int64_t q0 = oracle_->queries();
  const int64_t h0 = oracle_->row_hits();
  const int64_t m0 = oracle_->row_misses();
  const ChQueryStats ch0 = oracle_->ch_query_stats();
  Metrics metrics = engine.Run(*source);
  // A mid-stream parse/order error ended the pull early; the partial run's
  // metrics are meaningless, so report the source failure instead.
  MTSHARE_RETURN_NOT_OK(source->status());
  metrics.oracle_queries = oracle_->queries() - q0;
  metrics.oracle_row_hits = oracle_->row_hits() - h0;
  metrics.oracle_row_misses = oracle_->row_misses() - m0;
  metrics.oracle_backend = OracleBackendName(oracle_->backend());
  // CH counters, as deltas of the shared oracle (its engines are all
  // checked back into the pool between dispatches, so the totals are
  // quiescent here). Preprocessing cost is per oracle, not per run.
  const ChQueryStats ch1 = oracle_->ch_query_stats();
  metrics.routing.ch_active = oracle_->backend() == OracleBackend::kCh;
  metrics.routing.ch_shortcuts = oracle_->ch_build_stats().shortcuts_added;
  metrics.routing.ch_preprocessing_ms =
      oracle_->ch_build_stats().preprocessing_ms;
  metrics.routing.ch_point_queries = ch1.point_queries - ch0.point_queries;
  // The dispatcher counted its endpoint and stop-label searches.
  metrics.routing.ch_upward_settled += ch1.upward_settled - ch0.upward_settled;
  metrics.setup = setup_;
  return metrics;
}

size_t MTShareSystem::SharedIndexMemoryBytes() const {
  return partitioning_.MemoryBytes() + landmarks_->MemoryBytes() +
         transitions_.MemoryBytes();
}

}  // namespace mtshare
