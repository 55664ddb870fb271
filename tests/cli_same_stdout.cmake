# Runs a command twice, each time on a fresh FRESH_DIR, and fails unless
# both runs exit 0 and print byte-identical stdout.
#
#   cmake -DFRESH_DIR=<dir> -P cli_same_stdout.cmake <program> [args...]
set(command)
set(after_script OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_script)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" MATCHES "cli_same_stdout\\.cmake$")
    set(after_script ON)
  endif()
endforeach()
foreach(run 1 2)
  file(REMOVE_RECURSE "${FRESH_DIR}")
  execute_process(COMMAND ${command} RESULT_VARIABLE status
                  OUTPUT_VARIABLE out${run})
  if(NOT "${status}" STREQUAL "0")
    message(FATAL_ERROR "'${command}' run ${run} exited ${status}")
  endif()
endforeach()
file(REMOVE_RECURSE "${FRESH_DIR}")
if(NOT out1 STREQUAL out2)
  message(FATAL_ERROR "'${command}' printed different stdout on two runs:\n"
                      "--- run 1\n${out1}\n--- run 2\n${out2}")
endif()
