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
  if (matching.epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be non-negative");
  }
  if (matching.gamma_max_m <= 0.0) {
    return Status::InvalidArgument("gamma must be positive");
  }
  if (matching.speed_mps <= 0.0) {
    return Status::InvalidArgument("speed must be positive");
  }
  if (matching.tmp <= 0.0) {
    return Status::InvalidArgument("T_mp must be positive");
  }
  // Oracle sizing: reject non-positive knobs here so MTShareSystem::Create
  // reports instead of misbehaving.
  if (oracle.max_exact_vertices <= 0) {
    return Status::InvalidArgument("oracle.max_exact_vertices must be positive");
  }
  if (oracle.ch.witness_settle_limit <= 0) {
    return Status::InvalidArgument(
        "oracle.ch.witness_settle_limit must be positive");
  }
  if (payment.beta < 0.0 || payment.beta > 1.0) {
    return Status::InvalidArgument("beta must lie in [0, 1]");
  }
  if (payment.eta < 0.0) {
    return Status::InvalidArgument("eta must be non-negative");
  }
  return Status::OK();
}

}  // namespace mtshare
