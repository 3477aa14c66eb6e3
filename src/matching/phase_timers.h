#ifndef MTSHARE_MATCHING_PHASE_TIMERS_H_
#define MTSHARE_MATCHING_PHASE_TIMERS_H_

#include <array>
#include <chrono>
#include <cstdint>

namespace mtshare {

/// Where dispatch wall-clock time goes (the run-report breakdown). Every
/// scheme attributes its work to these four phases; whatever falls between
/// them (glue, index bookkeeping) shows up as the report's unattributed
/// residual.
enum class DispatchPhase : int {
  /// Probing the spatial / partition-arrival indexes for raw candidates.
  kCandidateSearch = 0,
  /// Partition + mobility-cluster compatibility, seat and reachability
  /// refinement of the raw candidate set.
  kFilter,
  /// Schedule insertion feasibility (FindBestInsertionDp over candidates).
  kInsertion,
  /// Route materialization: shortest-path legs and probabilistic planning,
  /// including the routing oracle work they trigger.
  kRouting,
};

inline constexpr size_t kNumDispatchPhases = 4;

inline const char* DispatchPhaseName(DispatchPhase phase) {
  switch (phase) {
    case DispatchPhase::kCandidateSearch:
      return "candidate_search";
    case DispatchPhase::kFilter:
      return "filter";
    case DispatchPhase::kInsertion:
      return "insertion";
    case DispatchPhase::kRouting:
      return "routing";
  }
  return "?";
}

/// Accumulated per-phase dispatch time for one dispatcher (== one run).
/// When `enabled` is false the scoped timer below never reads the clock,
/// so an untimed run pays one branch per section.
struct PhaseTimers {
  bool enabled = false;
  std::array<double, kNumDispatchPhases> seconds{};
  std::array<int64_t, kNumDispatchPhases> calls{};

  void Reset() {
    seconds.fill(0.0);
    calls.fill(0);
  }

  double total_seconds() const {
    double total = 0.0;
    for (double s : seconds) total += s;
    return total;
  }
};

/// RAII section timer: attributes the enclosed scope to one phase.
class ScopedPhaseTimer {
 public:
  ScopedPhaseTimer(PhaseTimers& timers, DispatchPhase phase)
      : timers_(timers), phase_(static_cast<size_t>(phase)) {
    if (timers_.enabled) start_ = Clock::now();
  }
  ~ScopedPhaseTimer() {
    if (!timers_.enabled) return;
    timers_.seconds[phase_] +=
        std::chrono::duration<double>(Clock::now() - start_).count();
    ++timers_.calls[phase_];
  }

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  using Clock = std::chrono::steady_clock;
  PhaseTimers& timers_;
  size_t phase_;
  Clock::time_point start_;
};

}  // namespace mtshare

#endif  // MTSHARE_MATCHING_PHASE_TIMERS_H_
