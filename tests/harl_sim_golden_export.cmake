# CTest script: the telemetry exports are byte-identical to recorded bytes.
# Three recipes run through the real harl_sim binary, and the SHA-256 of
# each export file must equal the digest recorded for it:
#   * storm: a reduced failure/rebuild storm (16 files, 4 tenants, server 7
#     fails at 0.05 s, health monitor and a 5 ms SLO armed) -- recorder,
#     registry, time series and health monitor;
#   * adaptive: a drifting multiregion run with the adaptive re-layout loop,
#     a GC-pause straggler on server 0 and the health monitor armed (2 epoch
#     installs and 161 straggler flags in one trace) -- the advisor feed,
#     the epoch/migration instants and the straggler instants together;
#   * population: a 4-file harl-adaptive population with a server failure
#     (one adaptive manager per file, degraded re-plans) and health armed.
# Any change to what the recorder, the registry, the time series, the
# health monitor or the adaptive manager export shows up here; an intended
# format change re-records the digests in the same commit and says why.
if(NOT DEFINED HARL_SIM OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DHARL_SIM=<binary> -DWORK_DIR=<dir>")
endif()

set(mismatch "")

# run_recipe(<name> <args...>): runs harl_sim with <args> plus one
# <kind>-out= file per expected_<name>_<kind> digest, then compares digests.
function(run_recipe name)
  set(outputs "")
  set(files "")
  foreach(kind metrics timeseries trace)
    if(DEFINED expected_${name}_${kind})
      set(out ${WORK_DIR}/golden_export_${name}_${kind}.json)
      file(REMOVE ${out})
      list(APPEND outputs ${kind}-out=${out})
      list(APPEND files ${kind})
      set(file_${kind} ${out})
    endif()
  endforeach()
  execute_process(
    COMMAND ${HARL_SIM} ${ARGN} ${outputs}
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err
    RESULT_VARIABLE run_rc)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${name} run failed (${run_rc}): ${run_err}")
  endif()
  foreach(kind IN LISTS files)
    if(NOT EXISTS ${file_${kind}})
      message(FATAL_ERROR "${name} run did not write ${file_${kind}}")
    endif()
    file(SHA256 ${file_${kind}} got)
    if(NOT got STREQUAL expected_${name}_${kind})
      string(APPEND mismatch
             "\n  ${name} ${kind}: got ${got}"
             "\n     expected ${expected_${name}_${kind}}"
             "\n     (${file_${kind}})")
    endif()
  endforeach()
  set(mismatch "${mismatch}" PARENT_SCOPE)
endfunction()

set(expected_storm_metrics
    c4407605184da3ad47cdfb39cc7efc1c23989be5a91d8d7da25e3509baa84886)
set(expected_storm_timeseries
    6fe2e3d5df62c5f1684f46248f6ba3c6ae2e176d2d44624e64d63ff198715b8d)
run_recipe(storm files=16 tenants=4 schemes=64K fail-server=7 fail-at=0.05
           health=1 slo-ms=5)

set(expected_adaptive_metrics
    9c6bf0fa4c3075657072b63237a35ab01ddaa7ea5abaf41458427ee6ac0d724f)
set(expected_adaptive_timeseries
    39d58f9272f60bf84d3c7c4d5240028500d2c3a34c3a9480f986385d1c0fdb59)
set(expected_adaptive_trace
    e2b305bcd4701baf43f9740cd852f710d8ef4a620d161f0b16f315f82fb9d5a9)
run_recipe(adaptive workload=multiregion procs=4 coverage=0.05 drift=2
           drift-factor=0.125 schemes=harl adapt=1 adapt-window=256 health=1
           slo-ms=5 gc-pause-ms=60 gc-period=0.1 gc-factor=8 gc-server=0)

set(expected_population_metrics
    52b0d264810fbe19e9377a4bbbee2fe8bfeae20c6a31fc2eb5536fb14bfbf1e8)
set(expected_population_timeseries
    5d07116c2c767900c6452cfe8780f9c58fee7bb293892ac80a89ae96550fb1b2)
run_recipe(population files=4 tenants=2 procs=4 file=8M request=256K
           schemes=harl-adaptive fail-server=7 fail-at=0.05 health=1
           slo-ms=50 adapt-window=16)

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

message(STATUS "golden export ok: storm, adaptive and population digests")
