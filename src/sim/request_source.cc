#include "sim/request_source.h"

#include <algorithm>
#include <istream>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"
#include "demand/trip_io.h"

namespace mtshare {

bool RequestSource::Next(RideRequest* out) {
  if (has_buffered_) {
    *out = buffered_;
    has_buffered_ = false;
    return true;
  }
  return Produce(out);
}

bool RequestSource::Peek(RideRequest* out) {
  if (!has_buffered_) {
    if (!Produce(&buffered_)) return false;
    has_buffered_ = true;
  }
  *out = buffered_;
  return true;
}

VectorRequestSource::VectorRequestSource(
    const std::vector<RideRequest>* requests)
    : requests_(requests) {
  MTSHARE_CHECK(requests != nullptr);
}

bool VectorRequestSource::Produce(RideRequest* out) {
  if (pos_ >= requests_->size()) return false;
  *out = (*requests_)[pos_++];
  return true;
}

StreamRequestSource::StreamRequestSource(std::istream* in,
                                         StreamSourceOptions options)
    : in_(in), options_(std::move(options)) {
  MTSHARE_CHECK(in != nullptr);
}

Status StreamRequestSource::Malformed(const std::string& why) const {
  std::ostringstream os;
  os << "request stream line " << line_no_ << ": " << why;
  return Status::InvalidArgument(os.str());
}

bool StreamRequestSource::Produce(RideRequest* out) {
  if (!status_.ok()) return false;
  std::string line;
  while (std::getline(*in_, line)) {
    ++line_no_;
    std::string_view text = Trim(line);
    if (text.empty() || text[0] == '#') continue;
    Result<RideRequest> parsed = ParseRequestLine(text);
    if (!parsed.ok()) {
      status_ = Malformed(parsed.status().message());
      return false;
    }
    RideRequest r = std::move(parsed).value();
    if (r.id == kInvalidRequest) r.id = next_id_;
    if (options_.finalize) options_.finalize(&r);
    // Validate here, where the error can carry a line number, instead of
    // letting the engine CHECK-fail on a malformed stream.
    if (r.id != next_id_) {
      status_ = Malformed("ids must be dense from 0 (expected " +
                          std::to_string(next_id_) + ", got " +
                          std::to_string(r.id) + ")");
      return false;
    }
    if (r.release_time < last_release_) {
      status_ = Malformed("requests must be sorted by release time");
      return false;
    }
    if (r.origin < 0 || r.destination < 0 ||
        (options_.num_vertices > 0 &&
         (r.origin >= options_.num_vertices ||
          r.destination >= options_.num_vertices))) {
      status_ = Malformed("origin/destination vertex out of range");
      return false;
    }
    if (r.passengers < 1) {
      status_ = Malformed("passengers must be >= 1");
      return false;
    }
    if (r.direct_cost <= 0.0) {
      status_ = Malformed(
          "request has no direct_cost (carry one in the log or install a "
          "finalize hook that derives it)");
      return false;
    }
    if (r.deadline <= r.release_time) {
      status_ = Malformed(
          "request has no feasible deadline (carry one in the log or "
          "install a finalize hook that derives it)");
      return false;
    }
    ++next_id_;
    last_release_ = r.release_time;
    *out = r;
    return true;
  }
  return false;
}

GeneratorRequestSource::GeneratorRequestSource(const DemandModel& demand,
                                               DistanceOracle& oracle,
                                               const ScenarioOptions& options)
    : demand_(&demand),
      oracle_(&oracle),
      options_(options),
      rng_(options.seed) {
  MTSHARE_CHECK(options.Validate().ok());
  // Pre-sample only the release times, without materializing the trips
  // behind them.
  release_times_.reserve(options.num_requests);
  for (int32_t i = 0; i < options.num_requests; ++i) {
    release_times_.push_back(
        demand.SampleReleaseTime(options.t_begin, options.t_end, rng_));
  }
  std::sort(release_times_.begin(), release_times_.end());
}

bool GeneratorRequestSource::Produce(RideRequest* out) {
  while (next_time_ < release_times_.size()) {
    const Trip trip = demand_->SampleTrip(release_times_[next_time_++], rng_);
    std::optional<RideRequest> r =
        MaterializeRequest(trip, *demand_, *oracle_, options_, rng_);
    if (!r.has_value()) continue;  // dropped, like MakeScenario
    r->id = next_id_++;
    *out = *r;
    return true;
  }
  return false;
}

}  // namespace mtshare
