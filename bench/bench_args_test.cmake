# The benches parse their positional arguments strictly: a malformed or
# out-of-range number, or an unknown scale, exits 2 with a diagnostic
# before any work starts. The threads ceiling is pinned by its parse result
# alone: 1025 is rejected before an executor exists.
foreach(bad_case
    "serve_load 42x tiny"
    "serve_load 42 tinyy"
    "serve_load 42 tiny 2000x"
    "serve_load 42 tiny 0"
    "serve_load 42 tiny 2000 1x"
    "serve_load 42 tiny 2000 1025"
    "serve_load 18446744073709551616 tiny"
    "map_queries 42 tiny 3x"
    "ablations -1")
  separate_arguments(bad_args UNIX_COMMAND "${bad_case}")
  list(POP_FRONT bad_args bench)
  execute_process(COMMAND ${BENCH_DIR}/${bench} ${bad_args}
                  RESULT_VARIABLE rc_bad ERROR_VARIABLE err_bad
                  OUTPUT_QUIET)
  if(NOT rc_bad EQUAL 2)
    message(FATAL_ERROR "'${bad_case}' exited ${rc_bad}, want 2")
  endif()
  if(NOT err_bad MATCHES "bad value|unknown scale|at least 1")
    message(FATAL_ERROR "'${bad_case}' printed no diagnostic: ${err_bad}")
  endif()
endforeach()
