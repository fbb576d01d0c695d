# Drives the CLI through its full topology -> optimize -> simulate pipeline,
# then the traced commands (trace, distributed, obs-report) on the same small
# lab at short horizons with every export they write, and validate-trace on
# each trace + metrics pair.
function(run_cli what)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cli ${what} failed")
  endif()
endfunction()

set(topo ${WORK_DIR}/smoke_topo.json)
run_cli(topology topology --preset small_lab --out ${topo})
run_cli(optimize optimize --topology ${topo}
        --scheme joint --out ${WORK_DIR}/smoke_decision.json)
run_cli(simulate simulate --topology ${topo}
        --decision ${WORK_DIR}/smoke_decision.json --horizon 10)

run_cli(trace trace --topology ${topo} --overload 2.0 --horizon 10
        --out ${WORK_DIR}/smoke_trace_trace.json
        --audit-out ${WORK_DIR}/smoke_trace_audit.json
        --metrics-out ${WORK_DIR}/smoke_trace_metrics.json)
run_cli(distributed distributed --topology ${topo} --ticks 10 --horizon 10
        --drop 0.2 --coord-mtbf 4
        --audit-out ${WORK_DIR}/smoke_dist_audit.json
        --trace-out ${WORK_DIR}/smoke_dist_trace.json
        --metrics-out ${WORK_DIR}/smoke_dist_metrics.json
        --timeseries-out ${WORK_DIR}/smoke_dist_series.json)
run_cli(obs-report obs-report --topology ${topo} --horizon 10
        --audit-out ${WORK_DIR}/smoke_obs_audit.json
        --trace-out ${WORK_DIR}/smoke_obs_trace.json
        --metrics-out ${WORK_DIR}/smoke_obs_metrics.json
        --timeseries-out ${WORK_DIR}/smoke_obs_series.json)
foreach(run trace dist obs)
  run_cli("validate-trace (${run})" validate-trace
          --trace ${WORK_DIR}/smoke_${run}_trace.json
          --metrics ${WORK_DIR}/smoke_${run}_metrics.json)
endforeach()
