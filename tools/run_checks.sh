#!/usr/bin/env bash
# Full local gate for the mT-Share repo:
#   1. configure + build the default preset, run the tier-1 ctest suite
#   2. configure + build the tsan preset, run the `tsan`-labelled tests
#      (thread pool, cross-run oracle sharing: exact row fills and the CH
#      engine pool, concurrent bucket-sweep runs on one CH oracle); an
#      empty selection fails
#   3. configure + build the asan preset, run the full suite (the examples
#      included) under AddressSanitizer + LeakSanitizer
#   4. smoke-run mtshare_sim --report and check the JSON schema marker,
#      the schema-4 engine counters, the no-fallback invariant on both
#      oracle backends, the CH oracle's bucket sweeps and an mT-Share-pro
#      run's street hails, and smoke BM_EngineAdvance, BM_ProbabilisticLeg,
#      BM_ExactRowFill and BM_OracleBackends
#   5. serve smoke: pipe a --save-requests log through mtshare_serve and
#      check the decision stream plus the schema-5 "serve" block
#   6. (opt-in) scale smoke: the `scale`-labelled ctest tier at reduced
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

echo "==> [1/6] default preset: build + tier-1 tests"
cmake --preset default >/dev/null
cmake --build --preset default -j "$JOBS"
ctest --preset default -j "$JOBS"

if [[ "${MTSHARE_SKIP_TSAN:-0}" != "1" ]]; then
  echo "==> [2/6] tsan preset: build + concurrency tests"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$JOBS" --target mtshare_thread_tests
  ctest --preset tsan -j "$JOBS"
else
  echo "==> [2/6] tsan preset: skipped (MTSHARE_SKIP_TSAN=1)"
fi

if [[ "${MTSHARE_SKIP_ASAN:-0}" != "1" ]]; then
  echo "==> [3/6] asan preset: build + full suite under ASan/LSan"
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
  echo "==> [3/6] asan preset: skipped (MTSHARE_SKIP_ASAN=1)"
fi

echo "==> [4/6] run-report smoke"
report=$(mktemp /tmp/mtshare_report.XXXXXX.json)
trap 'rm -f "$report"' EXIT
build/tools/mtshare_sim --scheme=mt-share --rows=12 --cols=12 \
  --taxis=15 --requests=80 --report="$report" >/dev/null
grep -q '"schema_version"' "$report"
grep -q '"dispatch_total_ms"' "$report"
grep -q '"batch_queries"' "$report"
grep -q '"backend"' "$report"
grep -q '"candidate_search": "index"' "$report"
# Both backends prime insertion legs through one closure: no leg may fall
# back to a per-pair query on either.
grep -q '"fallback_queries": 0' "$report"
# The schema-4 engine block must carry the heap core's counters.
grep -q '"heap_pops"' "$report"
grep -q '"arcs_stepped"' "$report"
build/tools/mtshare_sim --scheme=mt-share --rows=12 --cols=12 \
  --taxis=15 --requests=80 --oracle=ch --report="$report" >/dev/null
grep -q '"backend": "ch"' "$report"
grep -q '"ch_upward_settled"' "$report"
# On the CH oracle last-stop bucket sweeps answer pickup reachability
# (schema-6 counters): the run must label itself and keep the no-fallback
# invariant.
grep -q '"candidate_search": "ch_buckets"' "$report"
grep -q '"bucket_candidates"' "$report"
grep -q '"ellipse_pruned"' "$report"
grep -q '"fallback_queries": 0' "$report"
# mT-Share-pro reaches Algorithm 4 (probabilistic legs) and idle cruising;
# a run that serves no street hail has lost them.
build/tools/mtshare_sim --scheme=mt-share-pro --window=nonpeak \
  --rows=12 --cols=12 --taxis=15 --requests=80 --report="$report" >/dev/null
grep -q '"scheme": "mT-Share-pro"' "$report"
if grep -Eq '"served_offline": 0,?$' "$report"; then
  echo "report smoke: mT-Share-pro served no offline request" >&2
  exit 1
fi
echo "report OK: $report"
# Quick micro-bench passes (fleet advancement on a small fleet, one
# Algorithm 4 leg, one exact-table row fill by PHAST and by Dijkstra, the
# oracle's CostFans batch call on both backends) to catch bit-rot in the
# bench harness itself. The filters are anchored: an unmatched filter runs
# nothing and still exits 0.
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

echo "==> [5/6] serve smoke (log pipe + schema-5 serve block)"
request_log=$(mktemp /tmp/mtshare_requests.XXXXXX.csv)
decisions=$(mktemp /tmp/mtshare_decisions.XXXXXX.jsonl)
trap 'rm -f "$report" "$request_log" "$decisions"' EXIT
build/tools/mtshare_sim --scheme=mt-share --rows=12 --cols=12 \
  --taxis=15 --requests=80 --save-requests="$request_log" >/dev/null
build/tools/mtshare_serve --scheme=mt-share --rows=12 --cols=12 \
  --taxis=15 --gauge-every=0 --report="$report" \
  < "$request_log" > "$decisions" 2>/dev/null
grep -q '"serve"' "$report"
grep -q '"admitted"' "$report"
# Everything logged must be admitted — "admitted": 0 means the serve
# counters are dead.
if grep -q '"admitted": 0,' "$report"; then
  echo "serve smoke: zero admitted requests" >&2
  exit 1
fi
grep -q '"id":0' "$decisions"
echo "serve OK: $(wc -l < "$decisions") decision lines"

if [[ "${MTSHARE_RUN_SCALE:-0}" == "1" ]]; then
  echo "==> [6/6] scale smoke (reduced sizes; ctest -L scale)"
  cmake --build --preset default -j "$JOBS" \
    --target mtshare_scale_tests bench_scale
  MTSHARE_SCALE_CI=1 ctest --preset scale -j "$JOBS"
else
  echo "==> [6/6] scale smoke: skipped (set MTSHARE_RUN_SCALE=1 to run)"
fi

echo "all checks passed"
