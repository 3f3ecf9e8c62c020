# The examples parse their seed strictly: a malformed or out-of-range seed
# exits 2 with a diagnostic before any work starts.
foreach(example quickstart outage_impact service_mapping peering_discovery
        weighted_cdf)
  foreach(bad_seed 7x -1 "" 18446744073709551616)
    execute_process(COMMAND ${EXAMPLE_DIR}/${example} "${bad_seed}"
                    RESULT_VARIABLE rc_bad ERROR_VARIABLE err_bad
                    OUTPUT_QUIET)
    if(NOT rc_bad EQUAL 2)
      message(FATAL_ERROR
              "'${example} ${bad_seed}' exited ${rc_bad}, want 2")
    endif()
    if(NOT err_bad MATCHES "bad value '${bad_seed}' for seed")
      message(FATAL_ERROR
              "'${example} ${bad_seed}' printed no diagnostic: ${err_bad}")
    endif()
  endforeach()
endforeach()
