# Verifies the CLI's distinct exit codes: 2 = bad usage, 3 = unknown
# subcommand, 4 = runtime error (see the header comment in itm_cli.cpp).
execute_process(COMMAND ${ITM_BIN} RESULT_VARIABLE rc_noargs
                ERROR_VARIABLE err_noargs OUTPUT_VARIABLE out_noargs)
if(NOT rc_noargs EQUAL 2)
  message(FATAL_ERROR "no-args exit was ${rc_noargs}, want 2")
endif()
if(NOT err_noargs MATCHES "usage:")
  message(FATAL_ERROR "no-args usage must go to stderr, got: ${out_noargs}")
endif()

execute_process(COMMAND ${ITM_BIN} frobnicate RESULT_VARIABLE rc_unknown
                ERROR_VARIABLE err_unknown)
if(NOT rc_unknown EQUAL 3)
  message(FATAL_ERROR "unknown-command exit was ${rc_unknown}, want 3")
endif()
if(NOT err_unknown MATCHES "unknown command")
  message(FATAL_ERROR "unknown-command diagnostic missing from stderr")
endif()

execute_process(COMMAND ${ITM_BIN} generate --no-such-flag
                RESULT_VARIABLE rc_flag ERROR_VARIABLE err_flag)
if(NOT rc_flag EQUAL 2)
  message(FATAL_ERROR "unknown-flag exit was ${rc_flag}, want 2")
endif()

execute_process(COMMAND ${ITM_BIN} path --scale tiny
                RESULT_VARIABLE rc_operand ERROR_VARIABLE err_operand)
if(NOT rc_operand EQUAL 2)
  message(FATAL_ERROR "missing-operand exit was ${rc_operand}, want 2")
endif()

execute_process(COMMAND ${ITM_BIN} path NoSuchAS AlsoMissing --scale tiny
                RESULT_VARIABLE rc_runtime ERROR_VARIABLE err_runtime)
if(NOT rc_runtime EQUAL 4)
  message(FATAL_ERROR "runtime-error exit was ${rc_runtime}, want 4")
endif()

# Numeric flags parse strictly: a malformed or out-of-range value exits 2
# with a diagnostic before any work starts. The --threads ceiling is pinned
# by its parse result alone: 1025 is rejected before an executor exists.
foreach(bad_case
    "generate --scale tiny --seed 12x"
    "generate --scale tiny --seed -1"
    "generate --scale tiny --seed 18446744073709551616"
    "generate --scale tiny --threads abc"
    "generate --scale tiny --threads 1025"
    "generate --scale tiny --cache-size -1"
    "generate --scale tiny --cache-size 4k"
    "obs report a.json --baseline b.json --perf-tolerance abc"
    "obs report a.json --perf-tolerance 0.5"
    "obs report a.json --perf-tolerance inf"
    "obs report a.json --perf-tolerance nan"
    "obs report a.json --perf-tolerance 2x")
  separate_arguments(bad_args UNIX_COMMAND "${bad_case}")
  execute_process(COMMAND ${ITM_BIN} ${bad_args}
                  RESULT_VARIABLE rc_bad ERROR_VARIABLE err_bad
                  OUTPUT_QUIET)
  if(NOT rc_bad EQUAL 2)
    message(FATAL_ERROR "'itm ${bad_case}' exited ${rc_bad}, want 2")
  endif()
  if(NOT err_bad MATCHES "bad value")
    message(FATAL_ERROR "'itm ${bad_case}' printed no diagnostic: ${err_bad}")
  endif()
endforeach()

# The edges of the accepted ranges still parse: the largest seed runs, and
# --perf-tolerance 1 reaches the report, which then fails on the missing
# file (exit 4, not 2).
execute_process(COMMAND ${ITM_BIN} generate --scale tiny
                        --seed 18446744073709551615
                RESULT_VARIABLE rc_max_seed OUTPUT_QUIET
                ERROR_VARIABLE err_max_seed)
if(NOT rc_max_seed EQUAL 0)
  message(FATAL_ERROR "largest --seed exited ${rc_max_seed}: ${err_max_seed}")
endif()
execute_process(COMMAND ${ITM_BIN} obs report no_such_metrics.json
                        --perf-tolerance 1
                RESULT_VARIABLE rc_tol_one OUTPUT_QUIET ERROR_QUIET)
if(NOT rc_tol_one EQUAL 4)
  message(FATAL_ERROR "--perf-tolerance 1 exited ${rc_tol_one}, want 4")
endif()
