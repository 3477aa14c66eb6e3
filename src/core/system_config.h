#ifndef MTSHARE_CORE_SYSTEM_CONFIG_H_
#define MTSHARE_CORE_SYSTEM_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "matching/dispatcher.h"
#include "partition/bipartite_partitioner.h"
#include "routing/distance_oracle.h"

namespace mtshare {

/// Full system configuration: every paper parameter the evaluation varies
/// (Table II) with its default. Validation catches nonsensical combinations
/// before a run starts.
struct SystemConfig {
  // --- matching / routing (Table II) ---
  MatchingConfig matching;

  /// Distance-oracle backend (exact table or contraction hierarchy; kAuto
  /// picks by graph size).
  OracleOptions oracle;

  // --- map partitioning ---
  /// Number of spatial partitions kappa (paper sweeps 50-250; our scaled
  /// default matches the network sizes the benches use).
  int32_t kappa = 120;
  /// Transition clusters k_t (paper default 20).
  int32_t kt = 20;
  /// Use bipartite (mobility-aware) partitioning; false = uniform grid
  /// (the Table V ablation).
  bool bipartite_partitioning = true;

  // --- fleet / requests ---
  int32_t taxi_capacity = 3;
  /// Deadline flexibility rho (eq. (9), default 1.3).
  double rho = 1.3;

  uint64_t seed = 42;

  /// Returns OK or the first violated constraint. Table II's fixed values
  /// (epsilon, beta, eta, T_mp) are constants beside the code that reads
  /// them, so there is nothing to check for them here.
  Status Validate() const;
};

}  // namespace mtshare

#endif  // MTSHARE_CORE_SYSTEM_CONFIG_H_
