#!/usr/bin/env bash
# Full local gate for the mT-Share repo:
#   1. configure + build the default preset, run the tier-1 ctest suite,
#      which includes the CLI smokes: mtshare_sim_report_smoke
#      (tools/report_smoke.cmake: run reports on both oracle backends, a
#      pGreedyDP run and an mT-Share-pro run) and ServeCliTest (a
#      --save-requests log piped through mtshare_serve)
#   2. configure + build the tsan preset, run the `tsan`-labelled tests
#      (thread pool, cross-run oracle sharing: exact row fills and the CH
#      engine pool, concurrent bucket-sweep runs on one CH oracle); an
#      empty selection fails
#   3. configure + build the asan preset, run the full suite (the examples
#      included) under AddressSanitizer + LeakSanitizer
#   4. smoke BM_EngineAdvance, BM_ProbabilisticLeg, BM_ExactRowFill,
#      BM_OracleBackends, BM_ShortestLeg, BM_KMeansTransition and
#      BM_BipartitePartition
#   5. (opt-in) scale smoke: the `scale`-labelled ctest tier at reduced
#      sizes — bench_scale trajectory schema, 10^6-request stream
#      determinism, 10k-fleet golden decision digest
#
# Run from the repo root:  tools/run_checks.sh
# Also reachable as:       cmake --build build --target check
# Skip the tsan leg (e.g. on toolchains without libtsan): MTSHARE_SKIP_TSAN=1
# Skip the asan leg likewise:                             MTSHARE_SKIP_ASAN=1
# Run the minutes-long scale leg (off by default):        MTSHARE_RUN_SCALE=1
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${MTSHARE_CHECK_JOBS:-$(nproc)}

echo "==> [1/5] default preset: build + tier-1 tests"
cmake --preset default >/dev/null
cmake --build --preset default -j "$JOBS"
ctest --preset default -j "$JOBS"

if [[ "${MTSHARE_SKIP_TSAN:-0}" != "1" ]]; then
  echo "==> [2/5] tsan preset: build + concurrency tests"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$JOBS" --target mtshare_thread_tests
  ctest --preset tsan -j "$JOBS"
else
  echo "==> [2/5] tsan preset: skipped (MTSHARE_SKIP_TSAN=1)"
fi

if [[ "${MTSHARE_SKIP_ASAN:-0}" != "1" ]]; then
  echo "==> [3/5] asan preset: build + full suite under ASan/LSan"
  cmake --preset asan >/dev/null
  # Build mtshare_scale_tests too so its tests carry the `scale` label the
  # preset excludes; unbuilt, an unlabelled *_NOT_BUILT placeholder runs.
  # The examples run as ctest tests, so they are built as well.
  cmake --build --preset asan -j "$JOBS" --target mtshare_tests \
    mtshare_thread_tests mtshare_scale_tests mtshare_sim_cli mtshare_serve_cli \
    quickstart peak_hour_comparison offline_street_hailing \
    payment_walkthrough streaming_dispatch
  ctest --preset asan -j "$JOBS"
else
  echo "==> [3/5] asan preset: skipped (MTSHARE_SKIP_ASAN=1)"
fi

echo "==> [4/5] micro-bench smoke"
# Quick micro-bench passes (fleet advancement on a small fleet, one
# Algorithm 4 leg, one exact-table row fill by PHAST and by Dijkstra, the
# oracle's CostFans batch call on both backends, one committed leg by row
# walk and by Dijkstra, the transition k-means and a whole bipartite
# partition) to catch bit-rot in the bench harness itself. The filters are
# anchored: an unmatched filter runs nothing and still exits 0.
build/bench/bench_micro_components \
  --benchmark_filter='BM_EngineAdvance/fleet:100$' \
  --benchmark_min_time=0.01 >/dev/null
build/bench/bench_micro_components \
  --benchmark_filter='BM_ProbabilisticLeg$' \
  --benchmark_min_time=0.01 >/dev/null
build/bench/bench_micro_components \
  --benchmark_filter='^BM_ExactRowFill/(phast|dijkstra)$' \
  --benchmark_min_time=0.01 >/dev/null
build/bench/bench_micro_components \
  --benchmark_filter='^BM_OracleBackends/' \
  --benchmark_min_time=0.01 >/dev/null
build/bench/bench_micro_components \
  --benchmark_filter='^BM_ShortestLeg/(row_walk|dijkstra)$' \
  --benchmark_min_time=0.01 >/dev/null
build/bench/bench_micro_components \
  --benchmark_filter='^BM_KMeansTransition$' \
  --benchmark_min_time=0.01 >/dev/null
build/bench/bench_micro_components \
  --benchmark_filter='^BM_BipartitePartition$' \
  --benchmark_min_time=0.01 >/dev/null

if [[ "${MTSHARE_RUN_SCALE:-0}" == "1" ]]; then
  echo "==> [5/5] scale smoke (reduced sizes; ctest -L scale)"
  cmake --build --preset default -j "$JOBS" \
    --target mtshare_scale_tests bench_scale
  MTSHARE_SCALE_CI=1 ctest --preset scale -j "$JOBS"
else
  echo "==> [5/5] scale smoke: skipped (set MTSHARE_RUN_SCALE=1 to run)"
fi

echo "all checks passed"
