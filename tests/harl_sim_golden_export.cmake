# CTest script: the telemetry exports are byte-identical to recorded bytes.
# A reduced failure/rebuild storm (16 files, 4 tenants, server 7 fails at
# 0.05 s, health monitor and a 5 ms SLO armed) runs through the real
# harl_sim binary, and the SHA-256 of its metrics-out= and timeseries-out=
# files must equal the digests recorded before the telemetry hot path was
# rewritten (dense histograms, series handles, direct JSON writers).  Any
# change to what the recorder, the registry, the time series or the health
# monitor export shows up here; an intended format change re-records both
# digests in the same commit and says why.
if(NOT DEFINED HARL_SIM OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DHARL_SIM=<binary> -DWORK_DIR=<dir>")
endif()

set(expected_metrics
    c4407605184da3ad47cdfb39cc7efc1c23989be5a91d8d7da25e3509baa84886)
set(expected_timeseries
    6fe2e3d5df62c5f1684f46248f6ba3c6ae2e176d2d44624e64d63ff198715b8d)

set(metrics ${WORK_DIR}/golden_export_metrics.json)
set(timeseries ${WORK_DIR}/golden_export_timeseries.json)
file(REMOVE ${metrics} ${timeseries})

execute_process(
  COMMAND ${HARL_SIM} files=16 tenants=4 schemes=64K fail-server=7
          fail-at=0.05 health=1 slo-ms=5 metrics-out=${metrics}
          timeseries-out=${timeseries}
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "storm run failed (${run_rc}): ${run_err}")
endif()

set(mismatch "")
foreach(kind metrics timeseries)
  if(NOT EXISTS ${${kind}})
    message(FATAL_ERROR "run did not write ${${kind}}")
  endif()
  file(SHA256 ${${kind}} got)
  if(NOT got STREQUAL expected_${kind})
    string(APPEND mismatch
           "\n  ${kind}: got ${got}\n     expected ${expected_${kind}}"
           "\n     (${${kind}})")
  endif()
endforeach()
if(mismatch)
  message(FATAL_ERROR "telemetry export bytes changed:${mismatch}\n"
          "The digests were recorded with gcc 12.2 on x86-64 (Debian 12, "
          "glibc 2.36) in Release, Debug (-O0) and ASan/UBSan "
          "RelWithDebInfo builds.  The exports hold simulated times and "
          "std::pow tenant weights, so another compiler or libm may round "
          "a double differently: run the commit that recorded the digests "
          "on this toolchain before treating a mismatch as an export "
          "change.")
endif()

message(STATUS "golden export ok: metrics ${expected_metrics}, "
               "timeseries ${expected_timeseries}")
