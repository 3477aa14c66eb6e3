# Smoke-runs mtshare_sim with --report on both oracle backends, for
# pGreedyDP and for mT-Share-pro, and asserts the JSON carries the expected
# keys and values.
# Invoked by the mtshare_sim_report_smoke ctest; needs -DSIM_BINARY=... and
# -DREPORT_PATH=...
file(REMOVE "${REPORT_PATH}")
execute_process(
  COMMAND "${SIM_BINARY}" --scheme=mt-share --rows=12 --cols=12
          --taxis=15 --requests=80 --report=${REPORT_PATH}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mtshare_sim --report exited ${rc}\n${out}\n${err}")
endif()
if(NOT EXISTS "${REPORT_PATH}")
  message(FATAL_ERROR "report file was not written: ${REPORT_PATH}")
endif()
file(READ "${REPORT_PATH}" report)
# Keys of schema_version 10 (through the set-up block), including the
# schema-4 engine block's heap-core counters.
foreach(key "schema_version" "response_ms" "p95" "phases" "dispatch_total_ms"
        "routing" "batch_queries" "lb_pruned"
        "fallback_queries" "serve" "batch_window_ms" "admitted" "shed"
        "queue_depth" "candidate_search" "bucket_candidates"
        "bucket_maintenance_ms" "slots_screened" "ellipse_pruned" "backend"
        "heap_pops" "arcs_stepped" "route_legs_walked" "route_legs_prefixed"
        "route_legs_searched" "setup" "partition_s" "oracle_s" "landmarks_s"
        "transitions_s")
  if(NOT report MATCHES "\"${key}\"")
    message(FATAL_ERROR "report missing key '${key}':\n${report}")
  endif()
endforeach()
# The 12x12 city runs on the exact table, which answers pickup
# reachability with table reads; a stray "ch_buckets" here means the
# source no longer follows the backend.
if(NOT report MATCHES "\"candidate_search\": *\"index\"")
  message(FATAL_ERROR "exact run not labeled candidate_search=index:\n${report}")
endif()
# Every online request in a classic run is admitted; zero means the serve
# counters are not wired through the engine.
if(report MATCHES "\"admitted\": *0[,\n}]")
  message(FATAL_ERROR "report shows zero admitted requests:\n${report}")
endif()
# A leg-cost table miss during insertion means the priming fan has a
# coverage hole; fail the smoke loudly rather than silently degrade.
if(NOT report MATCHES "\"fallback_queries\": *0[,\n}]")
  message(FATAL_ERROR "report shows nonzero fallback_queries:\n${report}")
endif()
# Committed shortest-path legs: the exact table's resident rows must be
# walked; the CH backend has no rows, so it must walk none.
function(route_legs_walked_or_prefixed report out_var)
  string(REGEX MATCH "\"route_legs_walked\": *([0-9]+)" _ "${report}")
  set(walked "${CMAKE_MATCH_1}")
  string(REGEX MATCH "\"route_legs_prefixed\": *([0-9]+)" _ "${report}")
  set(prefixed "${CMAKE_MATCH_1}")
  if(walked STREQUAL "" OR prefixed STREQUAL "")
    message(FATAL_ERROR "report has no route leg counts:\n${report}")
  endif()
  math(EXPR total "${walked} + ${prefixed}")
  set(${out_var} "${total}" PARENT_SCOPE)
endfunction()
route_legs_walked_or_prefixed("${report}" walked_legs)
if(walked_legs EQUAL 0)
  message(FATAL_ERROR "exact run walked no route leg:\n${report}")
endif()
# mtshare_sim partitions by bipartite k-means, which takes measurable time;
# a zero means the set-up timers are not wired through to the report.
string(REGEX MATCH "\"partition_s\": *([0-9.e+-]+)" _ "${report}")
if(CMAKE_MATCH_1 STREQUAL "" OR CMAKE_MATCH_1 MATCHES "^0(\\.0*)?$")
  message(FATAL_ERROR "bipartite run reports no partition time:\n${report}")
endif()
file(REMOVE "${REPORT_PATH}")

# Same smoke on the CH oracle, which answers pickup reachability with
# last-stop bucket sweeps (schema_version 6): the run must label itself,
# do real sweep work, and keep the no-fallback invariant — the decision
# metrics are pinned by the golden tests; this guards the CLI wiring and
# the counter plumbing.
execute_process(
  COMMAND "${SIM_BINARY}" --scheme=mt-share --rows=12 --cols=12
          --taxis=15 --requests=80 --oracle=ch --report=${REPORT_PATH}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mtshare_sim --oracle=ch exited ${rc}\n${out}\n${err}")
endif()
file(READ "${REPORT_PATH}" report)
if(NOT report MATCHES "\"backend\": *\"ch\"")
  message(FATAL_ERROR "CH run not labeled backend=ch:\n${report}")
endif()
if(NOT report MATCHES "\"ch_upward_settled\"")
  message(FATAL_ERROR "CH run missing key 'ch_upward_settled':\n${report}")
endif()
if(NOT report MATCHES "\"candidate_search\": *\"ch_buckets\"")
  message(FATAL_ERROR "ch_buckets run not labeled:\n${report}")
endif()
if(report MATCHES "\"bucket_candidates\": *0[,\n}]")
  message(FATAL_ERROR "ch_buckets run swept no candidates:\n${report}")
endif()
if(NOT report MATCHES "\"fallback_queries\": *0[,\n}]")
  message(FATAL_ERROR "ch_buckets run shows nonzero fallback_queries:\n${report}")
endif()
route_legs_walked_or_prefixed("${report}" walked_legs)
if(NOT walked_legs EQUAL 0)
  message(FATAL_ERROR "CH run walked ${walked_legs} route legs:\n${report}")
endif()
file(REMOVE "${REPORT_PATH}")

# pGreedyDP makes no pickup-reachability probe (its DP rejects unreachable
# pickups itself), so its report names no source even on the CH oracle.
execute_process(
  COMMAND "${SIM_BINARY}" --scheme=pgreedy-dp --rows=12 --cols=12
          --taxis=15 --requests=80 --oracle=ch --report=${REPORT_PATH}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mtshare_sim --scheme=pgreedy-dp exited ${rc}\n${out}\n${err}")
endif()
file(READ "${REPORT_PATH}" report)
if(NOT report MATCHES "\"candidate_search\": *\"none\"")
  message(FATAL_ERROR "pGreedyDP run not labeled candidate_search=none:\n${report}")
endif()
file(REMOVE "${REPORT_PATH}")

# mT-Share-pro is the only scheme that reaches Algorithm 4 (probabilistic
# legs) and idle cruising; a nonpeak run that serves no street hail has
# lost them.
execute_process(
  COMMAND "${SIM_BINARY}" --scheme=mt-share-pro --window=nonpeak --rows=12
          --cols=12 --taxis=15 --requests=80 --report=${REPORT_PATH}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mtshare_sim --scheme=mt-share-pro exited ${rc}\n${out}\n${err}")
endif()
file(READ "${REPORT_PATH}" report)
if(NOT report MATCHES "\"scheme\": *\"mT-Share-pro\"")
  message(FATAL_ERROR "mT-Share-pro run not labeled:\n${report}")
endif()
if(NOT report MATCHES "\"served_offline\": *[0-9]"
   OR report MATCHES "\"served_offline\": *0[,\n}]")
  message(FATAL_ERROR "mT-Share-pro served no offline request:\n${report}")
endif()
file(REMOVE "${REPORT_PATH}")

# Optional second leg (pass -DSCALE_BINARY=... and -DSCALE_REPORT_DIR=...):
# smoke-run bench_scale at reduced CI sizes on a single tiny row and
# validate the BENCH_scale.json trajectory line — same run-report schema,
# appended by RecordTrajectoryRun instead of a BenchEnv, so a wiring break
# there would not be caught by the sim smoke above.
if(DEFINED SCALE_BINARY)
  set(scale_report "${SCALE_REPORT_DIR}/BENCH_scale.json")
  file(REMOVE "${scale_report}")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env MTSHARE_SCALE_CI=1
            MTSHARE_SCALE_ONLY=50:300
            "MTSHARE_BENCH_REPORT_DIR=${SCALE_REPORT_DIR}"
            "${SCALE_BINARY}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_scale exited ${rc}\n${out}\n${err}")
  endif()
  if(NOT EXISTS "${scale_report}")
    message(FATAL_ERROR "trajectory file was not written: ${scale_report}")
  endif()
  file(READ "${scale_report}" trajectory)
  foreach(key "schema_version" "experiment" "scheme" "window" "num_taxis"
          "num_requests" "seed" "served" "response_ms" "execution_seconds"
          "oracle" "backend" "engine" "arcs_stepped")
    if(NOT trajectory MATCHES "\"${key}\"")
      message(FATAL_ERROR
              "BENCH_scale.json missing key '${key}':\n${trajectory}")
    endif()
  endforeach()
  if(NOT trajectory MATCHES "\"experiment\": *\"scale\"")
    message(FATAL_ERROR "BENCH_scale.json has a wrong slug:\n${trajectory}")
  endif()
  file(REMOVE "${scale_report}")
endif()
