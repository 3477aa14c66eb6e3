#include "core/system_config.h"

namespace mtshare {

Status SystemConfig::Validate() const {
  if (kappa <= 0) return Status::InvalidArgument("kappa must be positive");
  if (kt <= 0) return Status::InvalidArgument("kt must be positive");
  if (kt > kappa) {
    return Status::InvalidArgument("kt must not exceed kappa (Sec. IV-B1)");
  }
  if (taxi_capacity <= 0) {
    return Status::InvalidArgument("taxi capacity must be positive");
  }
  if (rho <= 1.0) {
    return Status::InvalidArgument(
        "rho must exceed 1.0 (deadline above direct travel time)");
  }
  if (matching.lambda < -1.0 || matching.lambda > 1.0) {
    return Status::InvalidArgument("lambda must be a cosine in [-1, 1]");
  }
  if (matching.gamma_max_m <= 0.0) {
    return Status::InvalidArgument("gamma must be positive");
  }
  // Reject a non-positive witness limit here so MTShareSystem::Create
  // reports instead of misbehaving.
  if (oracle.ch.witness_settle_limit <= 0) {
    return Status::InvalidArgument(
        "oracle.ch.witness_settle_limit must be positive");
  }
  return Status::OK();
}

}  // namespace mtshare
