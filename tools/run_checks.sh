#!/usr/bin/env bash
# Full local gate for the mT-Share repo:
#   1. configure + build the default preset, run the tier-1 ctest suite,
#      which includes the CLI tests: MtshareSimCliTest (run reports on
#      both oracle backends, a pGreedyDP run and an mT-Share-pro run, and
#      mtshare_sim's pinned decisions) and ServeCliTest (a
#      --save-requests log piped through mtshare_serve), and the bench
#      smokes: one micro_smoke_* test per micro-bench filter
#      (BM_EngineAdvance/fleet:100, BM_ProbabilisticLeg/grid|bipartite,
#      BM_ExactRowFill/phast|dijkstra, BM_OracleBackends/,
#      BM_UpwardSearch/deposit|sweep, BM_PrimeInsertion/ch,
#      BM_ShortestLeg/row_walk|dijkstra, BM_KMeansTransition,
#      BM_BipartitePartition) and
#      bench_fleet_sweep_smoke; then the `scale`-labelled tests at full
#      size (10k-fleet golden decision digest, 10^6-request stream
#      determinism, bench_scale trajectory schema; seconds)
#   2. configure + build the tsan preset, run the `tsan`-labelled tests
#      (several RunScenario calls on one system sharing the oracle: exact
#      row fills and the CH engine pool; concurrent bucket-sweep runs on
#      one CH oracle); an empty selection fails
#   3. configure + build the asan preset, run the full suite (the examples
#      and bench smokes included) under AddressSanitizer + LeakSanitizer +
#      UndefinedBehaviorSanitizer (float-cast-overflow included); undefined
#      behaviour aborts the test (-fno-sanitize-recover) and prints its
#      stack
#   4. (opt-in) scale smoke: the `scale`-labelled ctest tier again at
#      reduced sizes (MTSHARE_SCALE_CI=1), which selects the reduced-size
#      10k-fleet golden decision digest
#
# Run from the repo root:  tools/run_checks.sh
# Also reachable as:       cmake --build build --target check
# Skip the tsan leg (e.g. on toolchains without libtsan): MTSHARE_SKIP_TSAN=1
# Skip the asan leg likewise:                             MTSHARE_SKIP_ASAN=1
# Run the reduced-size scale leg (off by default):        MTSHARE_RUN_SCALE=1
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${MTSHARE_CHECK_JOBS:-$(nproc)}

echo "==> [1/4] default preset: build + tier-1 tests + scale tier"
cmake --preset default >/dev/null
cmake --build --preset default -j "$JOBS"
ctest --preset default -j "$JOBS"
ctest --preset scale -j "$JOBS"

if [[ "${MTSHARE_SKIP_TSAN:-0}" != "1" ]]; then
  echo "==> [2/4] tsan preset: build + concurrency tests"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$JOBS" --target mtshare_thread_tests
  ctest --preset tsan -j "$JOBS"
else
  echo "==> [2/4] tsan preset: skipped (MTSHARE_SKIP_TSAN=1)"
fi

if [[ "${MTSHARE_SKIP_ASAN:-0}" != "1" ]]; then
  echo "==> [3/4] asan preset: build + full suite under ASan/LSan/UBSan"
  cmake --preset asan >/dev/null
  # Build mtshare_scale_tests too so its tests carry the `scale` label the
  # preset excludes; unbuilt, an unlabelled *_NOT_BUILT placeholder runs.
  # The examples and the bench smokes run as ctest tests, so their
  # binaries are built as well.
  cmake --build --preset asan -j "$JOBS" --target mtshare_tests \
    mtshare_thread_tests mtshare_scale_tests mtshare_sim_cli mtshare_serve_cli \
    quickstart peak_hour_comparison offline_street_hailing \
    payment_walkthrough streaming_dispatch \
    bench_micro_components bench_fig06_13_fleet_sweep
  ctest --preset asan -j "$JOBS"
else
  echo "==> [3/4] asan preset: skipped (MTSHARE_SKIP_ASAN=1)"
fi

if [[ "${MTSHARE_RUN_SCALE:-0}" == "1" ]]; then
  echo "==> [4/4] scale smoke (reduced sizes; ctest -L scale)"
  cmake --build --preset default -j "$JOBS" \
    --target mtshare_scale_tests bench_scale
  MTSHARE_SCALE_CI=1 ctest --preset scale -j "$JOBS"
else
  echo "==> [4/4] scale smoke: skipped (set MTSHARE_RUN_SCALE=1 to run)"
fi

echo "all checks passed"
