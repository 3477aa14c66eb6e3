#include "sim/metrics.h"

#include <algorithm>

#include "common/logging.h"

namespace mtshare {
namespace {

/// Running mean of the values added, summed in insertion order; 0 when
/// nothing was added.
struct RunningMean {
  double sum = 0.0;
  int64_t count = 0;
  void Add(double value) {
    sum += value;
    ++count;
  }
  double Get() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

}  // namespace

void Metrics::Register(const RideRequest& request) {
  MTSHARE_CHECK(request.id == static_cast<RequestId>(records_.size()));
  RequestRecord rec;
  rec.id = request.id;
  rec.offline = request.offline;
  rec.release_time = request.release_time;
  rec.direct_cost = request.direct_cost;
  records_.push_back(rec);
}

int32_t Metrics::ServedRequests() const {
  int32_t n = 0;
  for (const auto& r : records_) n += r.completed ? 1 : 0;
  return n;
}

int32_t Metrics::ServedOnline() const {
  int32_t n = 0;
  for (const auto& r : records_) n += (r.completed && !r.offline) ? 1 : 0;
  return n;
}

int32_t Metrics::ServedOffline() const {
  int32_t n = 0;
  for (const auto& r : records_) n += (r.completed && r.offline) ? 1 : 0;
  return n;
}

double Metrics::MeanResponseMs() const {
  RunningMean m;
  for (const auto& r : records_) {
    if (!r.offline && !r.shed) m.Add(r.response_ms);
  }
  return m.Get();
}

double Metrics::MeanDetourMinutes() const {
  RunningMean m;
  for (const auto& r : records_) {
    if (r.completed) {
      double detour = (r.dropoff_time - r.pickup_time) - r.direct_cost;
      m.Add(std::max(0.0, detour) / 60.0);
    }
  }
  return m.Get();
}

double Metrics::MeanWaitingMinutes() const {
  RunningMean m;
  for (const auto& r : records_) {
    if (r.completed) m.Add((r.pickup_time - r.release_time) / 60.0);
  }
  return m.Get();
}

double Metrics::MeanCandidates() const {
  RunningMean m;
  for (const auto& r : records_) {
    if (!r.offline && !r.shed) m.Add(r.candidates);
  }
  return m.Get();
}

void Metrics::FinalizeDistributions() {
  response_hist_.Clear();
  waiting_hist_.Clear();
  detour_hist_.Clear();
  candidates_hist_.Clear();
  for (const auto& r : records_) {
    // Response time exists for every admitted online request and for
    // offline requests that were actually served at an encounter (mirrors
    // MeanResponseMs, which reports the admitted online population). A
    // shed request never reached the dispatcher, so it has neither.
    if (r.shed) continue;
    if (!r.offline) {
      response_hist_.Record(r.response_ms);
      candidates_hist_.Record(r.candidates);
    } else if (r.assigned) {
      response_hist_.Record(r.response_ms);
    }
    if (r.completed) {
      waiting_hist_.Record((r.pickup_time - r.release_time) / 60.0);
      double detour = (r.dropoff_time - r.pickup_time) - r.direct_cost;
      detour_hist_.Record(std::max(0.0, detour) / 60.0);
    }
  }
}

double Metrics::TotalDispatchMs() const {
  double total = offline_probe_ms;
  for (const auto& r : records_) {
    if (!r.offline || r.assigned) total += r.response_ms;
  }
  return total;
}

double Metrics::MeanFareSaving() const {
  RunningMean m;
  for (const auto& r : records_) {
    if (r.completed && r.regular_fare > 0.0) {
      m.Add(1.0 - r.shared_fare / r.regular_fare);
    }
  }
  return m.Get();
}

}  // namespace mtshare
