# CTest script: adaptive re-layout smoke through the real harl_sim binary.
# A drifting multiregion run with adapt=1 and health=1 (the runner-fed
# adaptive manager and the recorder-driven health monitor in one run) must
# append the HARL-adaptive scheme, print the "adaptive re-layout" summary
# table, and export the adaptive.*/migration.* counter families — which
# tools/obs_report.py --check --require-adaptive then validates for internal
# consistency (epochs vs recommendations vs windows, migration traffic
# matching installed epochs, non-negative interference) — plus a time series
# that passes obs_report's --timeseries shape checks.  Python validation is
# skipped with a notice when no python3 is on PATH.
if(NOT DEFINED HARL_SIM OR NOT DEFINED WORK_DIR OR NOT DEFINED OBS_REPORT)
  message(FATAL_ERROR
          "pass -DHARL_SIM=<binary> -DWORK_DIR=<dir> -DOBS_REPORT=<script>")
endif()

set(metrics_file ${WORK_DIR}/adaptive_smoke_metrics.json)
set(timeseries_file ${WORK_DIR}/adaptive_smoke_timeseries.json)
file(REMOVE ${metrics_file} ${timeseries_file})

execute_process(
  COMMAND ${HARL_SIM} workload=multiregion procs=4 coverage=0.05 drift=2
          drift-factor=0.125 schemes=harl adapt=1 adapt-window=256 health=1
          metrics-out=${metrics_file} timeseries-out=${timeseries_file}
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "adaptive run failed (${run_rc}): ${run_err}")
endif()

if(NOT run_out MATCHES "HARL-adaptive")
  message(FATAL_ERROR "adapt=1 did not add the adaptive scheme:\n${run_out}")
endif()
if(NOT run_out MATCHES "adaptive re-layout")
  message(FATAL_ERROR "missing adaptive summary table:\n${run_out}")
endif()

foreach(out IN ITEMS ${metrics_file} ${timeseries_file})
  if(NOT EXISTS ${out})
    message(FATAL_ERROR "run did not write ${out}")
  endif()
endforeach()
file(READ ${metrics_file} metrics_json)
foreach(family IN ITEMS "adaptive.windows" "adaptive.epoch_installs"
        "migration.migrated_bytes")
  if(NOT metrics_json MATCHES "${family}")
    message(FATAL_ERROR "metrics missing ${family} family")
  endif()
endforeach()

find_program(PYTHON3 NAMES python3 python)
if(NOT PYTHON3)
  message(STATUS "python3 not found; family presence checked only")
  return()
endif()

execute_process(
  COMMAND ${PYTHON3} ${OBS_REPORT} ${metrics_file} --check --require-adaptive
          --timeseries ${timeseries_file}
  OUTPUT_VARIABLE check_out
  ERROR_VARIABLE check_err
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "obs_report.py --check --require-adaptive failed "
                      "(${check_rc}):\n${check_out}${check_err}")
endif()
message(STATUS "adaptive smoke ok: ${check_out}")
