// perfbench_replay — the closed-loop replay program behind perfbench/run.py.
//
//   perfbench_replay --workload=peak_ch --seed=42 --seconds=20 --trace=0
//                    [--golden=perfbench/golden_digests.txt]
//                    [--trace-out=spans.jsonl]
//
// A workload is a fixed grid city with a fixed demand model, historical
// trips and system config. --seed draws the request streams, all generated
// before any timing starts. One replay is a fresh MTShareSystem::Create
// (plus the ch_buckets CH, forced eagerly), then one RunScenario fed by a
// benchmark-side RequestSource that stamps the moment the engine pulls
// each request; the on_decision observer stamps the decision. Replays are
// single-threaded with one client in a closed loop: the engine pulls the
// next request only after deciding the previous one. Each replay starts
// from a fresh system, so the exact oracle's rows fill during the replay,
// as they do for a user's first run.
//
// --trace=0 replays max(3, seconds / nominal_replay_s) distinct streams of
// the seed with the program's phase timers off and reports the end-to-end
// metrics: throughput and latency percentiles over all replays, set-up as
// the median replay's. The host's speed drifts by up to 1.7x within
// minutes, so a fixed probe (HostProbe) runs between replays and each
// replay's times are scaled to the reference host speed; the raw wall
// values are printed beside them.
// --trace=1 times the set-up steps one by one, then replays the first
// stream five times (four threads, then untraced and traced twice each)
// and reports the per-layer breakdown of the last traced replay. Spans are
// kept in memory and written to --trace-out at the end.
//
// Every replay is checked (deadlines, served count, decision count,
// fallback queries, decision digest); violating requests count as failed.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/mtshare_system.h"
#include "graph/graph_generators.h"
#include "mobility/transition_model.h"
#include "partition/bipartite_partitioner.h"
#include "partition/landmark_graph.h"
#include "sim/request_source.h"

using namespace mtshare;

namespace {

using Clock = std::chrono::steady_clock;

double Elapsed(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "perfbench_replay: %s\n", why.c_str());
  std::exit(1);
}

struct WorkloadSpec {
  const char* name;
  int32_t grid;  // rows == cols of the generated city
  uint64_t city_seed;
  DayType day;
  double begin_h;  // release window, hours since midnight
  double end_h;
  int32_t requests;  // per stream
  double offline_fraction;
  int32_t historical_trips;
  int32_t taxis;
  SchemeKind scheme;
  CandidateSearch candidates;
  double nominal_replay_s;  // set-up + replay of one stream, sizes a run
  const char* dominant;     // dispatch layers this workload was chosen for
};

// One replay takes a few seconds. peak_ch and nonpeak_pro keep the arrival
// rates of their hour-long source configurations (3000 and 4000 requests
// per hour) over shorter windows; peak_exact is bench_scale's CI row.
const WorkloadSpec kWorkloads[] = {
    // 70x70 city (~4.9k vertices): kAuto picks the CH oracle. Insertion
    // leg priming on the CH dominates dispatch.
    {"peak_ch", 70, 42, DayType::kWorkday, 8.0, 8.0 + 20.0 / 60.0, 1000, 0.0,
     40000, 1000, SchemeKind::kMtShare, CandidateSearch::kChBuckets, 4.0,
     "insertion"},
    // 64x64 city (<4.2k vertices): dense exact table, ch_buckets on the
    // system-owned CH. Bucket maintenance and route materialization lead.
    {"peak_exact", 64, 20200961, DayType::kWorkday, 7.0, 20.0, 4000, 0.0,
     10000, 1000, SchemeKind::kMtShare, CandidateSearch::kChBuckets, 5.5,
     "bucket_maintenance+routing"},
    // 64x64 exact city, weekend, 32% street hails, mT-Share-pro on the
    // index path: probabilistic route planning dominates.
    {"nonpeak_pro", 64, 42, DayType::kWeekend, 10.0, 10.25, 1000, 0.32,
     40000, 600, SchemeKind::kMtSharePro, CandidateSearch::kIndex, 5.0,
     "routing"},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// One replay's requests. `seed` draws the requests and places the fleet.
struct Stream {
  uint64_t seed = 0;
  std::vector<RideRequest> requests;
  int64_t online = 0;
};

/// Everything the replays consume, materialized before timing starts.
struct Inputs {
  RoadNetwork network;
  std::vector<OdPair> history;
  SystemConfig config;
  std::vector<Stream> streams;
};

/// Stream i of run seed s draws from seed s * 64 + i, so runs never share a
/// stream (at most 64 streams per run).
constexpr uint64_t kStreamsPerSeed = 64;

Inputs MakeInputs(const WorkloadSpec& w, uint64_t seed, size_t num_streams) {
  Inputs in;
  GridCityOptions city;
  city.rows = w.grid;
  city.cols = w.grid;
  city.seed = w.city_seed;
  in.network = MakeGridCity(city);

  in.config.seed = w.city_seed;
  in.config.matching.candidate_search = w.candidates;

  DemandModelOptions dopt;
  dopt.day = w.day;
  dopt.seed = w.city_seed + 1;
  DemandModel demand(in.network, dopt);
  // Every backend returns identical costs; a CH keeps the generator's
  // memory out of the system's peak RSS.
  OracleOptions scratch;
  scratch.backend = OracleBackend::kCh;
  DistanceOracle oracle(in.network, scratch);

  ScenarioOptions history;
  history.num_requests = 0;
  history.num_historical_trips = w.historical_trips;
  history.seed = w.city_seed + 2;
  in.history =
      MakeScenario(in.network, demand, oracle, history).HistoricalOdPairs();

  for (size_t i = 0; i < num_streams; ++i) {
    ScenarioOptions sopt;
    sopt.t_begin = w.begin_h * 3600.0;
    sopt.t_end = w.end_h * 3600.0;
    sopt.num_requests = w.requests;
    sopt.offline_fraction = w.offline_fraction;
    sopt.num_historical_trips = 0;
    sopt.rho = in.config.rho;
    sopt.seed = seed * kStreamsPerSeed + i;
    Stream s;
    s.seed = sopt.seed;
    s.requests = MakeScenario(in.network, demand, oracle, sopt).requests;
    for (const RideRequest& r : s.requests) s.online += r.offline ? 0 : 1;
    in.streams.push_back(std::move(s));
  }
  return in;
}

/// The probe's time on the reference host (the 4-core VM the numbers in
/// README.md come from) when it runs undisturbed.
constexpr double kReferenceProbeS = 0.0100;

/// Host-speed probe: one Dijkstra over a benchmark-owned 256x256 grid with
/// pseudo-random arc weights. No change to the program can alter its work,
/// so its time tracks only how fast the host runs at the moment.
class HostProbe {
 public:
  HostProbe() : offsets_(kVertices + 1), dist_(kVertices) {
    heap_.reserve(4 * kVertices + 1);  // one push per arc relaxation
    uint64_t state = 88172645463325252ull;
    auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    for (int32_t v = 0; v < kVertices; ++v) {
      const int32_t r = v / kSide;
      const int32_t c = v % kSide;
      const int32_t nbrs[4] = {r > 0 ? v - kSide : -1,
                               r + 1 < kSide ? v + kSide : -1,
                               c > 0 ? v - 1 : -1, c + 1 < kSide ? v + 1 : -1};
      for (int32_t u : nbrs) {
        if (u < 0) continue;
        heads_.push_back(u);
        weights_.push_back(1.0 + static_cast<double>(next() % 1000));
      }
      offsets_[v + 1] = static_cast<int32_t>(heads_.size());
    }
  }

  /// Median seconds of seven searches (about 70 ms on the reference host).
  double Measure() {
    std::vector<double> times;
    for (int i = 0; i < 7; ++i) {
      const Clock::time_point t0 = Clock::now();
      Search();
      times.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
    }
    std::nth_element(times.begin(), times.begin() + 3, times.end());
    return times[3];
  }

 private:
  static constexpr int32_t kSide = 256;
  static constexpr int32_t kVertices = kSide * kSide;

  using Entry = std::pair<double, int32_t>;

  // The heap lives in a member reserved up front: the probe must not
  // allocate between replays, or it would move the program's peak RSS.
  void Search() {
    const std::greater<Entry> later;
    std::fill(dist_.begin(), dist_.end(), 1e300);
    heap_.clear();
    dist_[0] = 0.0;
    heap_.push_back({0.0, 0});
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      const auto [d, v] = heap_.back();
      heap_.pop_back();
      if (d > dist_[v]) continue;
      for (int32_t a = offsets_[v]; a < offsets_[v + 1]; ++a) {
        const double nd = d + weights_[a];
        if (nd < dist_[heads_[a]]) {
          dist_[heads_[a]] = nd;
          heap_.push_back({nd, heads_[a]});
          std::push_heap(heap_.begin(), heap_.end(), later);
        }
      }
    }
  }

  std::vector<int32_t> offsets_;
  std::vector<int32_t> heads_;
  std::vector<double> weights_;
  std::vector<double> dist_;
  std::vector<Entry> heap_;
};

/// Replays a materialized request vector and stamps each pull.
class StampedSource : public RequestSource {
 public:
  StampedSource(const std::vector<RideRequest>& requests,
                std::vector<Clock::time_point>* pulled)
      : requests_(requests), pulled_(pulled) {}

 protected:
  bool Produce(RideRequest* out) override {
    if (next_ >= requests_.size()) return false;
    *out = requests_[next_];
    (*pulled_)[next_] = Clock::now();
    ++next_;
    return true;
  }

 private:
  const std::vector<RideRequest>& requests_;
  std::vector<Clock::time_point>* pulled_;
  size_t next_ = 0;
};

/// In-memory span log of the traced run, written out once at the end.
struct Span {
  const char* name;
  int32_t id;
  int32_t parent;   // -1 = root
  int64_t request;  // -1 = not a per-request span
  double start_us;
  double end_us;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  int32_t Add(const char* name, int32_t parent, Clock::time_point start,
              Clock::time_point end, int64_t request = -1) {
    const int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back({name, id, parent, request, Micros(start), Micros(end)});
    return id;
  }
  /// Opens a span whose end is set later by Close (children need its id).
  int32_t Open(const char* name, int32_t parent, Clock::time_point start) {
    return Add(name, parent, start, start);
  }
  void Close(int32_t id, Clock::time_point end) {
    spans_[id].end_us = Micros(end);
  }
  void Reserve(size_t n) { spans_.reserve(spans_.size() + n); }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%d,\"parent\":%d,\"request\":%" PRId64
                   ",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   s.name, s.id, s.parent, s.request, s.start_us, s.end_us);
    }
    return std::fclose(f) == 0;
  }

 private:
  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

struct Replay {
  const Stream* stream = nullptr;
  double setup_s = 0.0;      // Create + forced bucket CH
  double bucket_ch_s = 0.0;  // the BucketSearchCh part of setup_s
  double wall_s = 0.0;       // RunScenario, timed from outside
  Metrics metrics;
  std::vector<double> latency_ms;  // online requests, pull -> decision
  int64_t decisions = 0;
  uint64_t digest = 0;
  int64_t failed = 0;
  std::vector<std::string> violations;

  void FailAll(const std::string& why) {
    violations.push_back(why);
    failed = static_cast<int64_t>(stream->requests.size());
  }
};

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Bits(double v) {
  uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

/// Decision digest: id, taxi and the pickup/dropoff time bits of every
/// request, in id order.
uint64_t DecisionDigest(const Metrics& m) {
  uint64_t h = 1469598103934665603ull;
  for (const RequestRecord& r : m.records()) {
    h = Fnv(h, static_cast<uint64_t>(r.id));
    h = Fnv(h, static_cast<uint64_t>(static_cast<int64_t>(r.taxi)));
    h = Fnv(h, Bits(r.pickup_time));
    h = Fnv(h, Bits(r.dropoff_time));
  }
  return h;
}

/// Checks one replay against its generated requests. A request that breaks
/// its own deadlines is failed alone; a replay-level violation fails all.
void Verify(Replay* rep) {
  const Metrics& m = rep->metrics;
  const std::vector<RideRequest>& requests = rep->stream->requests;
  const auto& records = m.records();
  if (records.size() != requests.size()) {
    rep->FailAll("record count differs from the request count");
    return;
  }
  int64_t served = 0;
  int64_t offline_assigned = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const RideRequest& req = requests[i];
    const RequestRecord& rec = records[i];
    if (rec.offline && rec.assigned) ++offline_assigned;
    if (!rec.completed) continue;
    ++served;
    if (rec.pickup_time < req.release_time ||
        rec.pickup_time > req.PickupDeadline() ||
        rec.dropoff_time < rec.pickup_time ||
        rec.dropoff_time > req.deadline) {
      ++rep->failed;
      if (rep->violations.size() < 5) {
        rep->violations.push_back("request " + std::to_string(i) +
                                  " misses a deadline");
      }
    }
  }
  if (served != m.ServedRequests()) {
    rep->FailAll("served count disagrees with Metrics::ServedRequests");
  }
  if (m.serve.admitted != rep->stream->online || m.serve.shed != 0) {
    rep->FailAll("not every online request was admitted");
  }
  if (rep->decisions != m.serve.admitted + offline_assigned) {
    rep->FailAll("on_decision calls != admitted + offline served (" +
                 std::to_string(rep->decisions) + " vs " +
                 std::to_string(m.serve.admitted + offline_assigned) + ")");
  }
  if (m.routing.fallback_queries != 0) {
    rep->FailAll("insertion fell back to per-pair oracle queries");
  }
}

struct ReplayOptions {
  int32_t threads = 1;
  bool phase_timing = false;
  SpanLog* spans = nullptr;  // non-null = traced replay
  int32_t parent_span = -1;
};

Replay RunReplay(const WorkloadSpec& w, const Inputs& in, const Stream& stream,
                 const ReplayOptions& opt) {
  Replay rep;
  rep.stream = &stream;
  const size_t n = stream.requests.size();
  std::vector<Clock::time_point> pulled(n);
  std::vector<Clock::time_point> decided(n);
  SpanLog* spans = opt.spans;
  if (spans != nullptr) spans->Reserve(n + 3);

  const Clock::time_point t0 = Clock::now();
  auto created = MTShareSystem::Create(in.network, in.history, in.config);
  if (!created.ok()) Die("Create: " + created.status().ToString());
  std::unique_ptr<MTShareSystem> system = std::move(created).value();
  const Clock::time_point t1 = Clock::now();
  // Force the lazy ch_buckets hierarchy into set-up: otherwise the first
  // dispatch pays for a CH build. On a CH oracle this returns its own CH.
  if (w.candidates == CandidateSearch::kChBuckets) {
    system->BucketSearchCh(&system->oracle());
  }
  const Clock::time_point t2 = Clock::now();
  rep.setup_s = Elapsed(t0, t2);
  rep.bucket_ch_s = Elapsed(t1, t2);
  if (spans != nullptr) {
    spans->Add("setup.create", opt.parent_span, t0, t1);
    spans->Add("setup.bucket_ch", opt.parent_span, t1, t2);
  }

  StampedSource source(stream.requests, &pulled);
  ScenarioSpec spec;
  spec.scheme = w.scheme;
  spec.source = &source;
  spec.num_taxis = w.taxis;
  spec.fleet_seed = stream.seed;
  spec.num_threads = opt.threads;
  spec.collect_phase_timing = opt.phase_timing;
  int32_t replay_span = -1;
  spec.on_decision = [&](const RideRequest& r, const RequestRecord&) {
    const Clock::time_point now = Clock::now();
    decided[r.id] = now;
    ++rep.decisions;
    if (spans != nullptr && !r.offline) {
      spans->Add("request", replay_span, pulled[r.id], now, r.id);
    }
  };
  const Clock::time_point t3 = Clock::now();
  if (spans != nullptr) replay_span = spans->Open("replay", opt.parent_span, t3);
  Result<Metrics> run = system->RunScenario(spec);
  const Clock::time_point t4 = Clock::now();
  if (spans != nullptr) spans->Close(replay_span, t4);
  if (!run.ok()) Die("RunScenario: " + run.status().ToString());
  rep.wall_s = Elapsed(t3, t4);
  rep.metrics = std::move(run).value();

  // The engine peeks the first request while placing the fleet, before the
  // replay proper starts; its pull stamp is not a dispatch boundary.
  rep.latency_ms.reserve(static_cast<size_t>(stream.online));
  for (size_t i = 1; i < n; ++i) {
    if (stream.requests[i].offline) continue;
    rep.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(decided[i] - pulled[i])
            .count());
  }
  rep.digest = DecisionDigest(rep.metrics);
  Verify(&rep);
  return rep;
}

/// Golden decision digests, one "workload stream_seed hex" per line.
std::map<uint64_t, uint64_t> ReadGolden(const std::string& path,
                                        const std::string& workload) {
  std::map<uint64_t, uint64_t> golden;
  if (path.empty()) return golden;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) Die("cannot read " + path);
  char name[65];
  uint64_t seed = 0;
  uint64_t digest = 0;
  while (std::fscanf(f, "%64s %" SCNu64 " %" SCNx64, name, &seed, &digest) ==
         3) {
    if (workload == name) golden[seed] = digest;
  }
  std::fclose(f);
  return golden;
}

/// Fails a replay whose digest differs from the golden one for its stream,
/// or from the first replay of the same stream.
void CheckDigests(const char* workload,
                  const std::map<uint64_t, uint64_t>& golden,
                  std::vector<Replay>* replays) {
  std::map<uint64_t, uint64_t> first;
  for (Replay& r : *replays) {
    std::printf("decision_digest %s %" PRIu64 " %016" PRIx64 "\n", workload,
                r.stream->seed, r.digest);
    auto [it, inserted] = first.emplace(r.stream->seed, r.digest);
    if (!inserted && it->second != r.digest) {
      r.FailAll("decision digest differs between replays of one stream");
    }
    auto g = golden.find(r.stream->seed);
    if (g != golden.end() && g->second != r.digest) {
      r.FailAll("decision digest differs from the golden digest");
    }
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PrintReplays(const std::vector<Replay>& replays) {
  for (size_t i = 0; i < replays.size(); ++i) {
    const Replay& r = replays[i];
    std::printf("replay %zu (stream %" PRIu64 "): setup %.3f s, wall %.3f s, "
                "dispatch %.1f ms, %zu latency samples\n",
                i, r.stream->seed, r.setup_s, r.wall_s,
                r.metrics.TotalDispatchMs(), r.latency_ms.size());
    for (const std::string& v : r.violations) {
      std::printf("  violation: %s\n", v.c_str());
    }
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints every metric as a readable line, then the result JSON last.
void Report(const std::vector<Replay>& replays,
            const std::vector<Metric>& metrics) {
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const Replay& r : replays) {
    attempted += static_cast<int64_t>(r.stream->requests.size());
    failed += r.failed;
  }
  for (const Metric& m : metrics) {
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("correctness: %s (%" PRId64 " of %" PRId64
              " requests failed a check)\n",
              failed == 0 ? "PASS" : "FAIL", failed, attempted);
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void RunEndToEnd(const WorkloadSpec& w, const Inputs& in,
                 const std::map<uint64_t, uint64_t>& golden,
                 HostProbe* probe) {
  std::vector<double> probe_s;
  std::vector<Replay> replays;
  for (const Stream& s : in.streams) {
    probe_s.push_back(probe->Measure());
    replays.push_back(RunReplay(w, in, s, ReplayOptions{}));
  }
  probe_s.push_back(probe->Measure());
  CheckDigests(w.name, golden, &replays);
  PrintReplays(replays);

  // Times are scaled to the reference host speed. Replay i's factor is the
  // mean of the probes on either side of it: > 1 when the host ran slower
  // than the reference.
  std::vector<double> setup, raw_setup, latency, raw_latency;
  double admitted = 0, wall = 0, raw_wall = 0;
  double served = 0, total = 0, detour = 0, wait = 0, failed = 0;
  for (size_t i = 0; i < replays.size(); ++i) {
    const Replay& r = replays[i];
    const Metrics& m = r.metrics;
    const double slow =
        0.5 * (probe_s[i] + probe_s[i + 1]) / kReferenceProbeS;
    admitted += static_cast<double>(m.serve.admitted);
    wall += r.wall_s / slow;
    raw_wall += r.wall_s;
    setup.push_back(r.setup_s / slow);
    raw_setup.push_back(r.setup_s);
    for (double ms : r.latency_ms) {
      latency.push_back(ms / slow);
      raw_latency.push_back(ms);
    }
    // Quality means are weighted by served requests across all streams.
    served += m.ServedRequests();
    total += m.TotalRequests();
    detour += m.MeanDetourMinutes() * m.ServedRequests();
    wait += m.MeanWaitingMinutes() * m.ServedRequests();
    failed += static_cast<double>(r.failed);
  }
  std::printf("workload %s: %zu replays of %d requests, %zu latency samples "
              "(%zu beyond p99)\n",
              w.name, replays.size(), w.requests, latency.size(),
              latency.size() / 100);
  std::printf("host probe median %.3f ms (reference %.1f ms); raw wall "
              "values: replay_rps %.3f, decision_p50_ms %.4f, "
              "decision_p99_ms %.4f, setup_s %.4f\n",
              Median(probe_s) * 1000.0, kReferenceProbeS * 1000.0,
              admitted / raw_wall, Percentile(raw_latency, 0.50),
              Percentile(raw_latency, 0.99), Median(raw_setup));
  Report(replays,
         {{"replay_rps", admitted / wall, "1/s"},
          {"decision_p50_ms", Percentile(latency, 0.50), "ms"},
          {"decision_p99_ms", Percentile(latency, 0.99), "ms"},
          {"setup_s", Median(setup), "s"},
          {"peak_rss_mb", PeakRssMb(), "MB"},
          {"served_pct", 100.0 * served / total, "%"},
          {"detour_mean_min", detour / served, "min"},
          {"wait_mean_min", wait / served, "min"},
          {"verified_pct", 100.0 * (total - failed) / total, "%"}});
}

void RunTraced(const WorkloadSpec& w, const Inputs& in,
               const std::map<uint64_t, uint64_t>& golden,
               const std::string& trace_out, HostProbe* probe) {
  const double probe_s = probe->Measure();
  const Clock::time_point epoch = Clock::now();
  SpanLog spans(epoch);
  const int32_t root = spans.Open("run", -1, epoch);

  // The set-up steps MTShareSystem::Create runs internally, timed
  // one by one (same inputs and options as Create uses).
  const SystemConfig& config = in.config;
  const Clock::time_point b0 = Clock::now();
  BipartiteOptions bopt;
  bopt.kappa = config.kappa;
  bopt.kt = config.kt;
  bopt.seed = config.seed;
  MapPartitioning partitioning =
      BipartitePartition(in.network, in.history, bopt);
  const Clock::time_point b1 = Clock::now();
  LandmarkGraph landmarks(in.network, partitioning);
  const Clock::time_point b2 = Clock::now();
  TransitionModel transitions = TransitionModel::Build(
      in.network.num_vertices(), partitioning.num_partitions(),
      partitioning.vertex_partition, in.history);
  const Clock::time_point b3 = Clock::now();
  { DistanceOracle oracle(in.network, config.oracle); }
  const Clock::time_point b4 = Clock::now();
  spans.Add("setup.partition", root, b0, b1);
  spans.Add("setup.landmarks", root, b1, b2);
  spans.Add("setup.transitions", root, b2, b3);
  spans.Add("setup.oracle", root, b3, b4);

  // Four threads first (it also warms the allocator), then untraced and
  // traced replays alternately, all on the first stream.
  const Stream& stream = in.streams.front();
  ReplayOptions pooled;
  pooled.threads = 4;
  ReplayOptions traced;
  traced.phase_timing = true;
  traced.spans = &spans;
  traced.parent_span = root;
  std::vector<Replay> replays;
  replays.push_back(RunReplay(w, in, stream, pooled));
  for (int i = 0; i < 2; ++i) {
    replays.push_back(RunReplay(w, in, stream, ReplayOptions{}));
    replays.push_back(RunReplay(w, in, stream, traced));
  }
  spans.Close(root, Clock::now());
  CheckDigests(w.name, golden, &replays);

  Replay& t = replays.back();
  const Metrics& m = t.metrics;
  const double wall_ms = t.wall_s * 1000.0;
  const double dispatch_ms = m.TotalDispatchMs();
  const double maintenance_ms = m.routing.bucket_maintenance_ms;
  auto phase_ms = [&](DispatchPhase p) {
    return m.phases.seconds[static_cast<size_t>(p)] * 1000.0;
  };
  // Bucket maintenance runs inside the candidate-search phase; report the
  // two apart.
  const double candidate_ms =
      phase_ms(DispatchPhase::kCandidateSearch) - maintenance_ms;
  const double filter_ms = phase_ms(DispatchPhase::kFilter);
  const double insertion_ms = phase_ms(DispatchPhase::kInsertion);
  const double routing_ms = phase_ms(DispatchPhase::kRouting);
  const double unattributed_ms =
      dispatch_ms - m.phases.total_seconds() * 1000.0;
  const double self_ms = wall_ms - dispatch_ms;

  // Reconciliation: the engine's clock sits inside the replay span timed
  // here, dispatch inside the engine, the phases inside dispatch.
  const double slack_ms = 1.0;
  if (m.execution_seconds * 1000.0 > wall_ms + slack_ms ||
      dispatch_ms > m.execution_seconds * 1000.0 + slack_ms ||
      unattributed_ms < -slack_ms || candidate_ms < -slack_ms) {
    t.FailAll("per-layer breakdown does not reconcile");
  }
  PrintReplays(replays);
  std::printf("reconcile: sim.self_ms %.3f + matching.dispatch_ms %.3f = "
              "replay wall %.3f ms (engine clock %.3f ms)\n",
              self_ms, dispatch_ms, wall_ms, m.execution_seconds * 1000.0);
  std::printf("reconcile: candidate_search %.3f + bucket_maintenance %.3f + "
              "filter %.3f + insertion %.3f + routing %.3f + unattributed "
              "%.3f = dispatch %.3f ms\n",
              candidate_ms, maintenance_ms, filter_ms, insertion_ms,
              routing_ms, unattributed_ms, dispatch_ms);

  const std::map<std::string, double> layers = {
      {"candidate_search", candidate_ms},  {"bucket_maintenance", maintenance_ms},
      {"filter", filter_ms},               {"insertion", insertion_ms},
      {"routing", routing_ms},             {"unattributed", unattributed_ms}};
  double dominant_ms = 0.0;
  for (std::string_view rest = w.dominant; !rest.empty();) {
    const size_t plus = rest.find('+');
    dominant_ms += layers.at(std::string(rest.substr(0, plus)));
    rest = plus == std::string_view::npos ? "" : rest.substr(plus + 1);
  }
  std::printf("chosen for: %s = %.1f%% of dispatch (%s)\n", w.dominant,
              100.0 * dominant_ms / dispatch_ms,
              2.0 * dominant_ms > dispatch_ms ? "holds" : "does not hold");

  const double admitted = static_cast<double>(m.serve.admitted);
  const double row_total =
      static_cast<double>(m.oracle_row_hits + m.oracle_row_misses);
  const double screened = static_cast<double>(m.routing.slots_screened);
  std::printf("bases: %" PRId64 " insertion slots screened, %.0f admitted "
              "requests, %.0f oracle row lookups, %zu latency samples\n",
              m.routing.slots_screened, admitted, row_total,
              t.latency_ms.size());
  std::vector<double> bucket_ch;
  for (const Replay& r : replays) bucket_ch.push_back(r.bucket_ch_s);
  const double untraced_s = replays[1].wall_s + replays[3].wall_s;
  const double traced_s = replays[2].wall_s + replays[4].wall_s;
  const double serial_dispatch_ms = replays[1].metrics.TotalDispatchMs() +
                                    replays[3].metrics.TotalDispatchMs();

  if (!trace_out.empty() && !spans.Write(trace_out)) {
    Die("cannot write " + trace_out);
  }
  Report(
      replays,
      {{"core.partition_s", Elapsed(b0, b1), "s"},
       {"core.landmarks_s", Elapsed(b1, b2), "s"},
       {"core.transitions_s", Elapsed(b2, b3), "s"},
       {"routing.oracle_build_s", Elapsed(b3, b4), "s"},
       {"routing.bucket_ch_build_s", Median(bucket_ch), "s"},
       {"sim.self_ms", self_ms, "ms"},
       {"sim.arcs_stepped", static_cast<double>(m.engine.arcs_stepped),
        "count"},
       {"sim.heap_pops", static_cast<double>(m.engine.heap_pops), "count"},
       {"sim.offline_probe_ms", m.offline_probe_ms, "ms"},
       {"matching.dispatch_ms", dispatch_ms, "ms"},
       {"matching.candidate_search_ms", candidate_ms, "ms"},
       {"matching.bucket_maintenance_ms", maintenance_ms, "ms"},
       {"matching.filter_ms", filter_ms, "ms"},
       {"matching.insertion_ms", insertion_ms, "ms"},
       {"matching.routing_ms", routing_ms, "ms"},
       {"matching.unattributed_ms", unattributed_ms, "ms"},
       {"matching.candidates_mean", m.MeanCandidates(), "count"},
       {"matching.lb_pruned", static_cast<double>(m.routing.lb_pruned),
        "count"},
       {"matching.ellipse_pruned_ratio",
        screened > 0 ? m.routing.ellipse_pruned / screened : 0.0, "ratio"},
       {"routing.ch_upward_settled_per_req",
        admitted > 0 ? m.routing.ch_upward_settled / admitted : 0.0, "count"},
       {"routing.ch_bucket_entries_per_req",
        admitted > 0 ? m.routing.ch_bucket_entries / admitted : 0.0, "count"},
       {"routing.oracle_queries", static_cast<double>(m.oracle_queries),
        "count"},
       {"routing.row_miss_ratio",
        row_total > 0 ? m.oracle_row_misses / row_total : 0.0, "ratio"},
       {"routing.fallback_queries",
        static_cast<double>(m.routing.fallback_queries), "count"},
       {"pool.speedup_t4",
        0.5 * serial_dispatch_ms / replays[0].metrics.TotalDispatchMs(), "x"},
       {"trace.overhead_pct", 100.0 * (traced_s - untraced_s) / untraced_s,
        "%"},
       {"host.probe_ms", probe_s * 1000.0, "ms"}});
}

std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Die("arguments are --key=value, got '" + arg + "'");
    }
    args[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args = ParseArgs(argc, argv);
  const WorkloadSpec* w = FindWorkload(args["workload"]);
  if (w == nullptr) Die("unknown --workload '" + args["workload"] + "'");
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::atof(args["seconds"].c_str());
  const bool trace = args["trace"] == "1";
  // The stream count depends only on --seconds, never on measured speed,
  // so a (seed, seconds) pair always replays the same requests.
  const size_t streams =
      trace ? 1
            : static_cast<size_t>(std::clamp(seconds / w->nominal_replay_s,
                                             3.0, double{kStreamsPerSeed}));

  // Built first, so its fixed footprint precedes every replay's memory.
  HostProbe probe;
  const Clock::time_point g0 = Clock::now();
  Inputs in = MakeInputs(*w, seed, streams);
  std::printf("inputs: %d vertices, %zu streams of %d requests, %zu "
              "historical trips, generated in %.3f s (untimed)\n",
              in.network.num_vertices(), in.streams.size(), w->requests,
              in.history.size(), Elapsed(g0, Clock::now()));
  const std::map<uint64_t, uint64_t> golden =
      ReadGolden(args["golden"], w->name);
  if (trace) {
    RunTraced(*w, in, golden, args["trace-out"], &probe);
  } else {
    RunEndToEnd(*w, in, golden, &probe);
  }
  return 0;
}
