# Runs bench_fig06_13_fleet_sweep and asserts it exits 0 and prints the
# caption of every table it owns (Figs. 6-13 and Table III).
# Invoked by the bench_fleet_sweep_smoke ctest, which sets
# MTSHARE_BENCH_FAST=1 and MTSHARE_BENCH_REPORT=0; needs -DSWEEP_BINARY=...
execute_process(
  COMMAND "${SWEEP_BINARY}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${SWEEP_BINARY} exited ${rc}\n${out}\n${err}")
endif()
foreach(caption
    "Fig. 6 — served requests in peak scenario"
    "Fig. 7 — response time in peak scenario (ms/request)"
    "Fig. 8 — detour time in peak scenario (minutes)"
    "Fig. 9 — waiting time in peak scenario (minutes)"
    "Table III — average candidate taxis per request (peak)"
    "Fig. 10 — served requests in nonpeak scenario"
    "Fig. 11 — response time in nonpeak scenario (ms/request)"
    "Fig. 12 — detour time in nonpeak scenario (minutes)"
    "Fig. 13 — waiting time in nonpeak scenario (minutes)")
  string(FIND "${out}" "${caption}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "missing table '${caption}':\n${out}")
  endif()
endforeach()
