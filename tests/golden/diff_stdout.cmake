# Golden-output check: runs BIN (no arguments), writes its stdout to ACTUAL
# and fails unless the exit status is 0 and ACTUAL equals GOLDEN byte for
# byte.
#
#   cmake -DBIN=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P diff_stdout.cmake
#
# A mismatch prints a unified diff (when `diff` is on PATH). Regenerate a
# golden only for a change that is meant to alter the figure's output.
execute_process(COMMAND "${BIN}" OUTPUT_FILE "${ACTUAL}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${ACTUAL}"
  RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${ACTUAL}")
  endif()
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}")
endif()
