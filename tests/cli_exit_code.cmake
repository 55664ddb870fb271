# Runs a command and fails unless it exits with the expected status.
#
#   cmake -DEXPECT=<status> -P cli_exit_code.cmake <program> [args...]
set(command)
set(after_script OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_script)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" MATCHES "cli_exit_code\\.cmake$")
    set(after_script ON)
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE status)
if(NOT "${status}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "'${command}' exited ${status}, expected ${EXPECT}")
endif()
