// Reproduces paper Table IV: memory overhead of the ridesharing schemes'
// indexes at the largest fleet in the peak scenario. Paper shape: mT-Share
// carries ~39% larger indexes than T-Share/pGreedyDP (map partitions +
// mobility clusters on top of the spatial index) — a negligible absolute
// overhead on modern servers.
#include "bench_common.h"

using namespace mtshare;
using namespace mtshare::bench;

int main() {
  BenchScale scale = GetScale();
  BenchEnv env(Window::kPeak);
  PrintBanner("Table IV — index memory overhead (peak, max fleet)",
              "paper @3000 taxis: mT-Share indexes ~39% larger than "
              "T-Share/pGreedyDP; total memory +16%/+41%");
  const int32_t taxis = scale.default_fleet;
  PrintHeader({"scheme", "index KiB", "shared KiB", "total KiB"});
  double shared_kib = env.system().SharedIndexMemoryBytes() / 1024.0;
  for (SchemeKind scheme : {SchemeKind::kTShare, SchemeKind::kPGreedyDp,
                            SchemeKind::kMtShare}) {
    Metrics m = env.Run(scheme, taxis);
    double index_kib = m.index_memory_bytes / 1024.0;
    // The grid baselines do not use the mobility structures; only mT-Share
    // pays for partitions + landmark graph + transition statistics.
    bool uses_shared = scheme == SchemeKind::kMtShare;
    double total = index_kib + (uses_shared ? shared_kib : 0.0);
    PrintRow({std::string(SchemeName(scheme)), Fmt(index_kib, 1),
              Fmt(uses_shared ? shared_kib : 0.0, 1), Fmt(total, 1)});
  }
  std::printf("\n(shared = map partitioning + landmark graph + transition "
              "statistics;\n the all-pairs travel-cost cache is common to "
              "every scheme, as in the paper)\n");
  // Both backends own the hierarchy: the exact table fills its rows from
  // it, so the oracle figure counts it next to the filled rows.
  DistanceOracle& oracle = env.system().oracle();
  std::printf("\nrouting backend: %s — oracle memory %.1f KiB (CH index "
              "%.1f KiB: %lld shortcuts, built in %.0f ms)\n",
              OracleBackendName(oracle.backend()),
              oracle.MemoryBytes() / 1024.0,
              oracle.ch()->MemoryBytes() / 1024.0,
              static_cast<long long>(oracle.ch_build_stats().shortcuts_added),
              oracle.ch_build_stats().preprocessing_ms);
  return 0;
}
