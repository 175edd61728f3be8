# CTest script: telemetry-plane smoke through the real harl_sim binary.
# A GC-pause straggler run with `health=1 timeseries-out=` on a 2-worker
# harness pool (threads=2) must (a) write the windowed time-series/health
# JSON, (b) be byte-identical to the same run on the serial harness, and
# (c) pass
# `obs_report.py --timeseries --check --require-health` — i.e. at least one
# server is flagged and the SLO regression localizes to the injected server.
# The Python validation and the HTML dashboard are skipped (with a notice)
# when no python3 is on PATH.
if(NOT DEFINED HARL_SIM OR NOT DEFINED WORK_DIR OR NOT DEFINED OBS_REPORT)
  message(FATAL_ERROR
          "pass -DHARL_SIM=<binary> -DWORK_DIR=<dir> -DOBS_REPORT=<script>")
endif()

set(ts_pool ${WORK_DIR}/telemetry_smoke_pool.json)
set(ts_seq ${WORK_DIR}/telemetry_smoke_seq.json)
set(dashboard ${WORK_DIR}/telemetry_smoke_dashboard.html)
file(REMOVE ${ts_pool} ${ts_seq} ${dashboard})

# Deterministic straggler: server 0 spends 60ms of every 100ms in GC at 8x
# service time, the 5ms SLO separates its submissions from the fleet's.
set(run_args
  workload=ior procs=8 requests=64 schemes=harl
  gc-pause-ms=60 gc-period=0.1 gc-factor=8 gc-server=0
  slo-ms=5 health=1)

execute_process(
  COMMAND ${HARL_SIM} ${run_args} threads=2 timeseries-out=${ts_pool}
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "telemetry run failed (${run_rc}): ${run_err}")
endif()
if(NOT EXISTS ${ts_pool})
  message(FATAL_ERROR "run did not write ${ts_pool}")
endif()
file(SIZE ${ts_pool} ts_size)
if(ts_size EQUAL 0)
  message(FATAL_ERROR "${ts_pool} is empty")
endif()

# The summary table must still appear on stdout: telemetry is additive.
if(NOT run_out MATCHES "HARL")
  message(FATAL_ERROR "telemetry run lost its normal output:\n${run_out}")
endif()

# Same run on the serial harness: the telemetry export must not depend on
# the pool width, so the two files must be byte-identical.
execute_process(
  COMMAND ${HARL_SIM} ${run_args} threads=0 timeseries-out=${ts_seq}
  OUTPUT_VARIABLE seq_out
  ERROR_VARIABLE seq_err
  RESULT_VARIABLE seq_rc)
if(NOT seq_rc EQUAL 0)
  message(FATAL_ERROR "serial telemetry run failed (${seq_rc}): ${seq_err}")
endif()
file(SHA256 ${ts_pool} pool_hash)
file(SHA256 ${ts_seq} seq_hash)
if(NOT pool_hash STREQUAL seq_hash)
  message(FATAL_ERROR "timeseries output differs between threads=2 and "
                      "the serial harness:\n  ${ts_pool}\n  ${ts_seq}")
endif()

find_program(PYTHON3 NAMES python3 python)
if(NOT PYTHON3)
  message(STATUS "python3 not found; wrote, size-checked and byte-compared "
                 "${ts_pool} only")
  return()
endif()

execute_process(
  COMMAND ${PYTHON3} ${OBS_REPORT} --timeseries ${ts_pool} --require-health
          --html ${dashboard} --check
  OUTPUT_VARIABLE check_out
  ERROR_VARIABLE check_err
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "obs_report.py --check --require-health failed "
                      "(${check_rc}):\n${check_out}${check_err}")
endif()

# The self-contained dashboard must exist and actually contain the charts.
if(NOT EXISTS ${dashboard})
  message(FATAL_ERROR "obs_report did not write ${dashboard}")
endif()
file(READ ${dashboard} dash_html)
if(NOT dash_html MATCHES "<svg" OR NOT dash_html MATCHES "FLAGGED")
  message(FATAL_ERROR "dashboard lacks charts or the flagged-server table:\n"
                      "${dashboard}")
endif()

message(STATUS "telemetry smoke ok: ${check_out}")
