# Smoke-runs bench_scale at reduced CI sizes on one tiny row and checks
# the BENCH_scale.json trajectory line it appends. bench_scale appends it
# through RecordTrajectoryRun, not a BenchEnv, so a wiring break there
# would not show in the other benches. mtshare_sim's report is checked by
# MtshareSimCliTest (tests/sim/run_report_test.cc).
# Invoked by the bench_scale_report_smoke ctest; needs -DSCALE_BINARY=...
# and -DSCALE_REPORT_DIR=...
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
