// Micro-benchmarks of the performance-critical components (google-benchmark):
// shortest-path engines (plain vs partition-filtered vs oracle-cached),
// upward-search kernel runs, exact-table row fills (PHAST vs Dijkstra),
// insertion-leg priming from CH labels, committed shortest-path legs
// (row walk vs Dijkstra), probabilistic routing
// (Algorithm 4), request insertion (exhaustive vs DP), k-means, mobility
// clustering, and the candidate indexes. These quantify
// the design choices DESIGN.md calls out: filtered search settles fewer
// vertices; the oracle makes leg costs O(1); the DP insertion removes an
// O(m) factor.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "clustering/kmeans.h"
#include "common/random.h"
#include "demand/request.h"
#include "graph/graph_generators.h"
#include "matching/no_sharing.h"
#include "matching/taxi_index.h"
#include "mobility/mobility_clustering.h"
#include "mobility/transition_model.h"
#include "partition/bipartite_partitioner.h"
#include "routing/last_stop_buckets.h"
#include "routing/upward_search.h"
#include "sched/route_planner.h"
#include "sim/engine.h"
#include "spatial/grid_index.h"

namespace mtshare {
namespace {

const RoadNetwork& Net() {
  static const RoadNetwork* net = [] {
    GridCityOptions opt;
    opt.rows = 40;
    opt.cols = 40;
    opt.seed = 3;
    return new RoadNetwork(MakeGridCity(opt));
  }();
  return *net;
}

std::pair<VertexId, VertexId> RandomPair(Rng& rng) {
  VertexId a = VertexId(rng.NextInt(0, Net().num_vertices() - 1));
  VertexId b = VertexId(rng.NextInt(0, Net().num_vertices() - 1));
  return {a, b};
}

void BM_Dijkstra(benchmark::State& state) {
  DijkstraSearch search(Net());
  Rng rng(1);
  for (auto _ : state) {
    auto [a, b] = RandomPair(rng);
    benchmark::DoNotOptimize(search.Cost(a, b));
  }
}
BENCHMARK(BM_Dijkstra);

void BM_OracleCost(benchmark::State& state) {
  DistanceOracle oracle(Net());
  Rng rng(1);
  // A working set of sources (taxi locations repeat heavily in practice);
  // warming them makes the loop measure the O(1) steady state the paper
  // assumes for shortest-path queries.
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (int i = 0; i < 64; ++i) pairs.push_back(RandomPair(rng));
  for (auto& [a, b] : pairs) oracle.Cost(a, b);
  size_t i = 0;
  for (auto _ : state) {
    auto [a, b] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(oracle.Cost(a, b));
  }
}
BENCHMARK(BM_OracleCost);

// Head-to-head of the two oracle backends on cold-ish point queries:
// exact amortizes to table lookups (a miss fills a row), the CH pays two
// upward searches per query. The exact-table point read is also what each
// exact-table insertion leg costs: the insertion DP reads the table.
void BM_OracleBackends(benchmark::State& state) {
  OracleOptions oopt;
  oopt.backend = static_cast<OracleBackend>(state.range(0));
  static std::map<int64_t, std::unique_ptr<DistanceOracle>> oracles;
  std::unique_ptr<DistanceOracle>& oracle = oracles[state.range(0)];
  if (!oracle) oracle = std::make_unique<DistanceOracle>(Net(), oopt);
  Rng rng(23);
  for (auto _ : state) {
    auto [a, b] = RandomPair(rng);
    benchmark::DoNotOptimize(oracle->Cost(a, b));
  }
  state.SetLabel(OracleBackendName(oracle->backend()));
}
BENCHMARK(BM_OracleBackends)
    ->Arg(int(OracleBackend::kExact))
    ->Arg(int(OracleBackend::kCh));

// One run of the upward-search kernel on the micro-bench city's
// hierarchy, from one of 256 seeded sources per iteration: a location
// deposit (a forward run to exhaustion whose reached vertices then pass
// the stall test) and a reachability sweep (a backward run cut off at a
// 300 s pickup budget). reached_per_run counts the vertices a run
// reaches, kept_per_run those a deposit keeps.
enum class UpwardRun { kDeposit, kSweep };

void BM_UpwardSearch(benchmark::State& state, UpwardRun run) {
  static const ContractionHierarchy ch = ContractionHierarchy::Build(Net());
  UpwardSearch search(ch);
  Rng rng(43);
  std::vector<VertexId> sources(256);
  for (VertexId& s : sources) {
    s = VertexId(rng.NextInt(0, Net().num_vertices() - 1));
  }
  size_t i = 0;
  int64_t reached = 0;
  int64_t kept = 0;
  for (auto _ : state) {
    const VertexId source = sources[i++ % sources.size()];
    if (run == UpwardRun::kDeposit) {
      search.Run(source, UpwardSearch::kForward, kInfiniteCost);
      for (const VertexId v : search.reached()) {
        kept += search.Stalled(v) ? 0 : 1;
      }
    } else {
      search.Run(source, UpwardSearch::kBackward, 300.0);
    }
    reached += static_cast<int64_t>(search.reached().size());
  }
  const double runs = double(std::max<int64_t>(1, state.iterations()));
  state.counters["reached_per_run"] = double(reached) / runs;
  if (run == UpwardRun::kDeposit) {
    state.counters["kept_per_run"] = double(kept) / runs;
  }
}
BENCHMARK_CAPTURE(BM_UpwardSearch, deposit, UpwardRun::kDeposit);
BENCHMARK_CAPTURE(BM_UpwardSearch, sweep, UpwardRun::kSweep);

// One request's insertion priming on the CH (LastStopBuckets Begin, then
// one Prime per candidate, each followed by a read of its pickup leg, as
// its DP would) over a fixed, seeded set of 48 taxis: random locations, a
// sixth of them with a four-stop schedule and a third with a two-stop one,
// against one of 64 seeded requests per iteration. It meets the request's
// four endpoint searches with the taxis' labels, which the first
// iteration's Prime calls compute and later ones reuse.
void BM_PrimeInsertion(benchmark::State& state) {
  OracleOptions oopt;
  oopt.backend = OracleBackend::kCh;
  static std::unique_ptr<DistanceOracle> oracle;
  if (!oracle) oracle = std::make_unique<DistanceOracle>(Net(), oopt);
  constexpr int32_t kTaxis = 48;
  Rng rng(41);
  std::vector<std::vector<VertexId>> walks(kTaxis);
  for (TaxiId id = 0; id < kTaxis; ++id) {
    const int stops = id % 6 == 0 ? 4 : id % 3 == 0 ? 2 : 0;
    for (int k = 0; k <= stops; ++k) {
      walks[id].push_back(RandomPair(rng).first);
    }
  }
  std::vector<std::pair<VertexId, VertexId>> requests(64);
  for (auto& request : requests) request = RandomPair(rng);
  LastStopBuckets store(*oracle->ch(), kTaxis);
  size_t next = 0;
  for (auto _ : state) {
    const auto [origin, destination] = requests[next++ % requests.size()];
    store.Begin(origin, destination);
    for (TaxiId id = 0; id < kTaxis; ++id) {
      store.Prime(id, walks[id]);
      benchmark::DoNotOptimize(store.Cost(walks[id][0], origin));
    }
  }
  state.SetLabel(OracleBackendName(oracle->backend()));
}
BENCHMARK(BM_PrimeInsertion)->Name("BM_PrimeInsertion/ch");

// Perfbench's exact city (64x64, seed 20200961, 4093 vertices) and its
// hierarchy.
const RoadNetwork& ExactCity() {
  static const RoadNetwork* city = [] {
    GridCityOptions opt;
    opt.rows = 64;
    opt.cols = 64;
    opt.seed = 20200961;
    return new RoadNetwork(MakeGridCity(opt));
  }();
  return *city;
}

const ContractionHierarchy& ExactCityCh() {
  static const ContractionHierarchy ch =
      ContractionHierarchy::Build(ExactCity());
  return ch;
}

// One exact-table row fill on perfbench's exact city: the oracle's
// PhastRow against the DijkstraSearch::CostsFrom reference it replaced.
// Each iteration fills one row from a fresh kernel, as a table miss does.
enum class RowFill { kPhast, kDijkstra };

void BM_ExactRowFill(benchmark::State& state, RowFill fill) {
  const RoadNetwork& city = ExactCity();
  const ContractionHierarchy& ch = ExactCityCh();
  Rng rng(37);
  std::vector<VertexId> sources(256);
  for (VertexId& s : sources) {
    s = VertexId(rng.NextInt(0, city.num_vertices() - 1));
  }
  size_t i = 0;
  for (auto _ : state) {
    const VertexId source = sources[i++ % sources.size()];
    if (fill == RowFill::kPhast) {
      benchmark::DoNotOptimize(PhastRow(ch, source, UpwardSearch::kForward));
    } else {
      DijkstraSearch dijkstra(city);
      benchmark::DoNotOptimize(dijkstra.CostsFrom(source));
    }
  }
  state.SetLabel(std::to_string(city.num_vertices()) + " vertices");
}
BENCHMARK_CAPTURE(BM_ExactRowFill, phast, RowFill::kPhast);
BENCHMARK_CAPTURE(BM_ExactRowFill, dijkstra, RowFill::kDijkstra);

// One committed shortest-path leg on perfbench's exact city, between
// random vertices: walked back through the source's resident row
// (FindPathFromRow, which searches the prefix up to a tie) against the
// FindPath search it replaces. Both return the same path; the rows are
// filled before timing starts, as insertion's leg reads fill them.
enum class LegBuild { kRowWalk, kDijkstra };

void BM_ShortestLeg(benchmark::State& state, LegBuild build) {
  const RoadNetwork& city = ExactCity();
  Rng rng(41);
  std::vector<std::pair<VertexId, VertexId>> legs(256);
  std::vector<std::vector<Seconds>> rows;
  for (auto& [s, t] : legs) {
    s = VertexId(rng.NextInt(0, city.num_vertices() - 1));
    t = VertexId(rng.NextInt(0, city.num_vertices() - 1));
    rows.push_back(PhastRow(ExactCityCh(), s, UpwardSearch::kForward));
  }
  DijkstraSearch search(city);
  size_t i = 0;
  int64_t prefixed = 0;
  for (auto _ : state) {
    const size_t k = i++ % legs.size();
    const auto [s, t] = legs[k];
    if (build == LegBuild::kRowWalk) {
      benchmark::DoNotOptimize(search.FindPathFromRow(s, t, rows[k]));
      prefixed += search.last_path_prefixed() ? 1 : 0;
    } else {
      benchmark::DoNotOptimize(search.FindPath(s, t));
    }
  }
  if (build == LegBuild::kRowWalk) {
    state.counters["prefixed_share"] =
        double(prefixed) / double(std::max<int64_t>(1, state.iterations()));
  }
}
BENCHMARK_CAPTURE(BM_ShortestLeg, row_walk, LegBuild::kRowWalk);
BENCHMARK_CAPTURE(BM_ShortestLeg, dijkstra, LegBuild::kDijkstra);

void BM_FilteredBasicLeg(benchmark::State& state) {
  static MapPartitioning partitioning = GridPartition(Net(), 64);
  static LandmarkGraph landmarks(Net(), partitioning);
  static DistanceOracle oracle(Net());
  RoutePlanner planner(Net(), partitioning, landmarks, nullptr, &oracle,
                       RoutePlannerOptions{});
  Rng rng(1);
  for (auto _ : state) {
    auto [a, b] = RandomPair(rng);
    benchmark::DoNotOptimize(planner.PlanBasicLeg(a, b));
  }
}
BENCHMARK(BM_FilteredBasicLeg);

// Algorithm 4 for one leg with a transition model: landmark-path
// enumeration, the fine-grained vertex weights and the weighted masked
// Dijkstra. frames_per_leg is the enumeration's DFS frames per leg.
void BM_ProbabilisticLeg(benchmark::State& state) {
  static MapPartitioning partitioning = GridPartition(Net(), 64);
  static LandmarkGraph landmarks(Net(), partitioning);
  static DistanceOracle oracle(Net());
  static TransitionModel transitions = [] {
    Rng rng(11);
    std::vector<OdPair> trips;
    for (int i = 0; i < 20000; ++i) trips.push_back(RandomPair(rng));
    return TransitionModel::Build(Net().num_vertices(),
                                  partitioning.num_partitions(),
                                  partitioning.vertex_partition, trips);
  }();
  RoutePlanner planner(Net(), partitioning, landmarks, &transitions, &oracle,
                       RoutePlannerOptions{});
  Rng rng(1);
  for (auto _ : state) {
    auto [a, b] = RandomPair(rng);
    const Point& pa = Net().coord(a);
    const Point& pb = Net().coord(b);
    const Seconds budget = oracle.Cost(a, b) * 1.5 + 90.0;
    benchmark::DoNotOptimize(planner.PlanProbabilisticLeg(
        a, b, Point{pb.x - pa.x, pb.y - pa.y}, budget));
  }
  state.counters["frames_per_leg"] =
      double(planner.enumeration_frames()) /
      double(std::max<int64_t>(1, planner.probabilistic_legs()));
}
BENCHMARK(BM_ProbabilisticLeg);

InsertionResult RunInsertion(bool dp, const Schedule& base,
                             const RideRequest& r, DistanceOracle& oracle) {
  LegCostFn cost = [&](VertexId x, VertexId y) { return oracle.Cost(x, y); };
  return dp ? FindBestInsertionDp(base, r, 0, 0.0, 0, 4, cost)
            : FindBestInsertion(base, r, 0, 0.0, 0, 4, cost);
}

void InsertionBench(benchmark::State& state, bool dp) {
  static DistanceOracle oracle(Net());
  Rng rng(7);
  // Base schedule with three riders.
  Schedule base;
  LegCostFn cost = [&](VertexId x, VertexId y) { return oracle.Cost(x, y); };
  for (int i = 0; i < 3; ++i) {
    auto [o, d] = RandomPair(rng);
    if (o == d) continue;
    RideRequest r;
    r.id = i;
    r.origin = o;
    r.destination = d;
    r.direct_cost = oracle.Cost(o, d);
    r.deadline = 3.0 * r.direct_cost;
    InsertionResult ins = FindBestInsertion(base, r, 0, 0.0, 0, 4, cost);
    if (ins.found) base = ins.schedule;
  }
  RideRequest probe;
  probe.id = 99;
  std::tie(probe.origin, probe.destination) = RandomPair(rng);
  probe.direct_cost = oracle.Cost(probe.origin, probe.destination);
  probe.deadline = 3.0 * probe.direct_cost;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunInsertion(dp, base, probe, oracle));
  }
}

void BM_InsertionExhaustive(benchmark::State& state) {
  InsertionBench(state, false);
}
BENCHMARK(BM_InsertionExhaustive);

void BM_InsertionDp(benchmark::State& state) { InsertionBench(state, true); }
BENCHMARK(BM_InsertionDp);

// S3: ReindexTaxi first removes the taxi's old entries from every
// arrival-sorted partition list. Removal binary-searches each list by the
// membership's remembered arrival time; the previous linear scan-and-erase
// made every reindex O(taxis-per-partition). Larger fleets concentrate
// more taxis per partition, so the gap grows with the fleet argument.
void BM_TaxiIndexReindex(benchmark::State& state) {
  static MapPartitioning partitioning = GridPartition(Net(), 64);
  const int32_t fleet = int32_t(state.range(0));
  MtShareTaxiIndex index(Net(), partitioning, 0.707);
  Rng rng(29);
  std::vector<TaxiState> taxis(fleet);
  for (int32_t i = 0; i < fleet; ++i) {
    taxis[i].id = i;
    taxis[i].capacity = 3;
    taxis[i].location = VertexId(rng.NextInt(0, Net().num_vertices() - 1));
    index.ReindexTaxi(taxis[i], rng.NextUniform(0.0, 3600.0));
  }
  size_t next = 0;
  for (auto _ : state) {
    TaxiState& t = taxis[next++ % taxis.size()];
    t.location = VertexId(rng.NextInt(0, Net().num_vertices() - 1));
    index.ReindexTaxi(t, rng.NextUniform(0.0, 3600.0));
  }
}
BENCHMARK(BM_TaxiIndexReindex)->Arg(256)->Arg(1024)->Arg(4096);

// Fleet advancement on a fixed request stream while the fleet grows
// 100 -> 10k. Demand is constant, so larger fleets are mostly idle — the
// regime where the engine's heap pops only the taxis with movement due.
void BM_EngineAdvance(benchmark::State& state) {
  const int32_t fleet_size = int32_t(state.range(0));
  static DistanceOracle oracle(Net());
  static MapPartitioning partitioning = GridPartition(Net(), 64);
  static LandmarkGraph landmarks(Net(), partitioning, *oracle.ch());
  Rng rng(31);
  // One simulated hour of evenly released city-wide trips, ids dense from
  // zero and sorted by release as the engine requires.
  std::vector<RideRequest> requests;
  while (requests.size() < 256) {
    auto [o, d] = RandomPair(rng);
    if (o == d) continue;
    RideRequest r;
    r.id = RequestId(requests.size());
    r.release_time = double(requests.size()) * (3600.0 / 256.0);
    r.origin = o;
    r.destination = d;
    r.direct_cost = oracle.Cost(o, d);
    r.deadline = r.release_time + 1.5 * r.direct_cost;
    requests.push_back(r);
  }
  for (auto _ : state) {
    state.PauseTiming();  // fleet + dispatcher construction is not the story
    std::vector<TaxiState> fleet = MakeFleet(Net(), fleet_size, 3, 7);
    MatchingConfig mconfig;
    // A tight searching range keeps candidate evaluation flat across fleet
    // sizes so the measurement tracks fleet advancement, not dispatch.
    mconfig.gamma_max_m = 600.0;
    NoSharingDispatcher dispatcher(Net(), &oracle, &fleet, mconfig,
                                   landmarks);
    EngineOptions opts;
    opts.serve_offline = false;
    SimulationEngine engine(Net(), &dispatcher, &fleet, opts);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.Run(requests));
  }
}
BENCHMARK(BM_EngineAdvance)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->ArgName("fleet")
    ->Unit(benchmark::kMillisecond);

std::vector<double> NetCoords() {
  std::vector<double> coords;
  coords.reserve(size_t(Net().num_vertices()) * 2);
  for (VertexId v = 0; v < Net().num_vertices(); ++v) {
    coords.push_back(Net().coord(v).x);
    coords.push_back(Net().coord(v).y);
  }
  return coords;
}

/// 5000 historical trips between uniform random vertices of Net().
std::vector<OdPair> NetTrips() {
  Rng rng(13);
  std::vector<OdPair> trips;
  for (int i = 0; i < 5000; ++i) {
    VertexId a = VertexId(rng.NextInt(0, Net().num_vertices() - 1));
    VertexId b = VertexId(rng.NextInt(0, Net().num_vertices() - 1));
    if (a != b) trips.emplace_back(a, b);
  }
  return trips;
}

void BM_KMeansGeo(benchmark::State& state) {
  const std::vector<double> coords = NetCoords();
  const int32_t k = int32_t(state.range(0));
  for (auto _ : state) {
    Rng rng(11);
    benchmark::DoNotOptimize(KMeans(coords, 2, k, rng));
  }
}
BENCHMARK(BM_KMeansGeo)->Arg(20)->Arg(60);

// The transition clustering of bipartite partitioning (Sec. IV-B1 step
// 2), the k-means that dominates set-up: k_t = 20 over the 120-group rows
// TransitionModel::Build makes against a 120-cluster geo k-means of Net().
void BM_KMeansTransition(benchmark::State& state) {
  static const std::vector<double> rows = [] {
    Rng rng(19);
    const std::vector<int32_t> groups =
        KMeans(NetCoords(), 2, 120, rng).assignment;
    const int32_t num_groups =
        1 + *std::max_element(groups.begin(), groups.end());
    TransitionModel model = TransitionModel::Build(
        Net().num_vertices(), num_groups, groups, NetTrips());
    return std::vector<double>(
        model.Row(0), model.Row(0) + size_t(Net().num_vertices()) * num_groups);
  }();
  const size_t dim = rows.size() / size_t(Net().num_vertices());
  for (auto _ : state) {
    Rng rng(23);
    benchmark::DoNotOptimize(KMeans(rows, dim, 20, rng));
  }
}
BENCHMARK(BM_KMeansTransition)->Unit(benchmark::kMillisecond);

void BM_BipartitePartition(benchmark::State& state) {
  const std::vector<OdPair> trips = NetTrips();
  BipartiteOptions opt;
  opt.kappa = 48;
  opt.kt = 12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BipartitePartition(Net(), trips, opt));
  }
}
BENCHMARK(BM_BipartitePartition)->Unit(benchmark::kMillisecond);

void BM_MobilityClusterAssign(benchmark::State& state) {
  Rng rng(17);
  MobilityClustering clustering(0.707);
  int64_t member = 0;
  for (auto _ : state) {
    MobilityVector mv{Point{rng.NextUniform(0, 5000), rng.NextUniform(0, 5000)},
                      Point{rng.NextUniform(0, 5000), rng.NextUniform(0, 5000)}};
    clustering.Assign(member++, mv);
    if (member > 400) {
      clustering.Remove(member - 400);  // bound the live population
    }
  }
}
BENCHMARK(BM_MobilityClusterAssign);

void BM_GridIndexRadiusQuery(benchmark::State& state) {
  GridIndex index(Net(), 200.0);
  Rng rng(19);
  for (auto _ : state) {
    Point q{rng.NextUniform(0, 5000), rng.NextUniform(0, 5000)};
    benchmark::DoNotOptimize(index.VerticesInRadius(q, 800.0));
  }
}
BENCHMARK(BM_GridIndexRadiusQuery);

}  // namespace
}  // namespace mtshare

BENCHMARK_MAIN();
