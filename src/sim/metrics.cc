#include "sim/metrics.h"

#include "common/logging.h"

namespace mtshare {

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
  SummaryStats s;
  for (const auto& r : records_) {
    if (!r.offline) s.Add(r.response_ms);
  }
  return s.Mean();
}

double Metrics::MeanDetourMinutes() const {
  SummaryStats s;
  for (const auto& r : records_) {
    if (r.completed) {
      double detour = (r.dropoff_time - r.pickup_time) - r.direct_cost;
      s.Add(std::max(0.0, detour) / 60.0);
    }
  }
  return s.Mean();
}

double Metrics::MeanWaitingMinutes() const {
  SummaryStats s;
  for (const auto& r : records_) {
    if (r.completed) s.Add((r.pickup_time - r.release_time) / 60.0);
  }
  return s.Mean();
}

double Metrics::MeanCandidates() const {
  SummaryStats s;
  for (const auto& r : records_) {
    if (!r.offline) s.Add(r.candidates);
  }
  return s.Mean();
}

void Metrics::FinalizeDistributions() {
  response_hist_.Clear();
  waiting_hist_.Clear();
  detour_hist_.Clear();
  candidates_hist_.Clear();
  for (const auto& r : records_) {
    // Response time exists for every online request and for offline
    // requests that were actually served at an encounter (mirrors
    // MeanResponseMs, which reports the online population).
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
  SummaryStats s;
  for (const auto& r : records_) {
    if (r.completed && r.regular_fare > 0.0) {
      s.Add(1.0 - r.shared_fare / r.regular_fare);
    }
  }
  return s.Mean();
}

}  // namespace mtshare
