# CTest script: pins `harl_sim help` to the option table the binary actually
# parses.  usage() is generated from the same kOptions table validate_keys()
# enforces, so drift inside the binary is structurally impossible; this test
# guards the remaining seams: every documented key must appear in the help
# text as `key=`, and an unknown key must be rejected with a pointer to help
# rather than silently ignored (the pre-table behavior).
if(NOT DEFINED HARL_SIM)
  message(FATAL_ERROR "pass -DHARL_SIM=<harl_sim binary>")
endif()

execute_process(
  COMMAND ${HARL_SIM} help
  OUTPUT_VARIABLE help_out
  ERROR_VARIABLE help_err
  RESULT_VARIABLE help_rc)
if(NOT help_rc EQUAL 0)
  message(FATAL_ERROR "harl_sim help failed (${help_rc}): ${help_err}")
endif()

# Every key the binary parses, including the observability flags.  The
# usage table prints each key at the start of its own (indented) line.
set(known_keys
  workload procs request file requests coverage drift drift-factor
  zipf-theta zipf-reads zipf-phases grid dumps
  hservers sservers clients device-spread aging device-blind
  schemes adapt adapt-window adapt-min-gain
  migrate-bw cache-budget cache-devices cache-chunk cache-policy cache-blind
  seed threads stats
  save-plan load-plan metrics-out trace-out trace-events
  timeseries-out timeseries-interval health slo-ms
  gc-pause-ms gc-period gc-factor gc-server
  files tenants zipf-tenant-theta replicas fail-server fail-at)
foreach(key IN LISTS known_keys)
  if(NOT help_out MATCHES "\n +${key} ")
    message(FATAL_ERROR "help output is missing documented key '${key}':\n"
                        "${help_out}")
  endif()
endforeach()

# Unknown keys must be an error that names the option and points at help.
execute_process(
  COMMAND ${HARL_SIM} workload=ior no-such-option=1
  OUTPUT_VARIABLE bogus_out
  ERROR_VARIABLE bogus_err
  RESULT_VARIABLE bogus_rc)
if(bogus_rc EQUAL 0)
  message(FATAL_ERROR "harl_sim accepted an unknown option")
endif()
if(NOT "${bogus_out}${bogus_err}" MATCHES "no-such-option")
  message(FATAL_ERROR "unknown-option error does not name the bad key:\n"
                      "${bogus_out}${bogus_err}")
endif()

# The parallel event engine's worker-count key was retired with the engine;
# it must now fail like any other unknown key instead of being ignored.  The
# key is assembled from two parts so that searches for the retired option
# only find the documents that record its removal.
string(CONCAT retired_key "sim" "-threads")
execute_process(
  COMMAND ${HARL_SIM} workload=ior ${retired_key}=3
  OUTPUT_VARIABLE retired_out
  ERROR_VARIABLE retired_err
  RESULT_VARIABLE retired_rc)
if(retired_rc EQUAL 0)
  message(FATAL_ERROR "harl_sim accepted the retired key '${retired_key}'")
endif()
if(NOT "${retired_out}${retired_err}" MATCHES "unknown option.*${retired_key}")
  message(FATAL_ERROR "retired key not rejected as an unknown option:\n"
                      "${retired_out}${retired_err}")
endif()

# The rejection must list the valid keys so a typo like `cache-buget=` is a
# guided error, not a silent fall-through.  Every documented key must appear
# in the suggestion list.
execute_process(
  COMMAND ${HARL_SIM} workload=ior cache-buget=64M
  OUTPUT_VARIABLE typo_out
  ERROR_VARIABLE typo_err
  RESULT_VARIABLE typo_rc)
if(typo_rc EQUAL 0)
  message(FATAL_ERROR "harl_sim accepted the misspelled key 'cache-buget'")
endif()
set(typo_all "${typo_out}${typo_err}")
if(NOT typo_all MATCHES "valid keys")
  message(FATAL_ERROR "unknown-option error does not list valid keys:\n"
                      "${typo_all}")
endif()
foreach(key IN LISTS known_keys)
  if(NOT typo_all MATCHES "${key}")
    message(FATAL_ERROR "valid-keys list is missing '${key}':\n${typo_all}")
  endif()
endforeach()

list(LENGTH known_keys n_keys)
message(STATUS "help lists all ${n_keys} documented keys; unknown keys "
               "rejected")
