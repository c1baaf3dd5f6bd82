# Smoke run of tab_scalability that also exercises its --perf-json writer:
# runs BIN --smoke --perf-json JSON, then parses JSON and requires every
# top-level key the bench_json.py wrapper reads.
#
#   cmake -DBIN=<tab_scalability> -DJSON=<file> -P perf_json_smoke.cmake
file(REMOVE "${JSON}")
execute_process(COMMAND "${BIN}" --smoke --perf-json "${JSON}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ "${JSON}" doc)
foreach(key IN ITEMS schema_version workload calibration_mops throughput
                     e19_chaos e21_pdes recorder_overhead
                     e20_partition_heal_series)
  string(JSON value ERROR_VARIABLE err GET "${doc}" ${key})
  if(err)
    message(FATAL_ERROR "${JSON}: ${err}")
  endif()
endforeach()
