# The `ctest -L bench` gate: run the substrate_scale bench at the tiny tier
# and diff its record against the committed BENCH_tiny.json with `itm obs
# report --baseline`: deterministic values (counts, bytes, hashes) exactly,
# wall-clock values (timings, qps, RSS) within the ratio band. Keeps the
# perf ledger honest: a substrate change that shifts a deterministic value
# or regresses by an order of magnitude shows up here, not months later.
#
# Then doctored copies of the fresh record, each diffed against the
# untouched fresh record, must fail: the gate is pinned, not only run.
execute_process(COMMAND ${SUBSTRATE_BIN} tiny ${WORK_DIR}/BENCH_tiny.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "substrate_scale tiny failed (${rc}): ${err}")
endif()

execute_process(COMMAND ${ITM_BIN} obs report ${WORK_DIR}/BENCH_tiny.json
                        --baseline ${REPO_DIR}/BENCH_tiny.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench record drift (exit ${rc}); if the change is "
                      "intentional, regenerate the committed record with "
                      "build/bench/substrate_scale tiny BENCH_tiny.json\n"
                      "${out}${err}")
endif()
message(STATUS "${out}")

file(READ ${WORK_DIR}/BENCH_tiny.json fresh)

# Writes `doctored` as a copy of the fresh record and requires the diff
# against the fresh record to exit 1 with a REGRESSION line naming `key`.
function(expect_regression tag key doctored)
  if(doctored STREQUAL fresh)
    message(FATAL_ERROR "${tag}: doctoring left the record unchanged")
  endif()
  set(copy ${WORK_DIR}/BENCH_tiny_${tag}.json)
  file(WRITE ${copy} "${doctored}")
  execute_process(COMMAND ${ITM_BIN} obs report ${copy}
                          --baseline ${WORK_DIR}/BENCH_tiny.json
                  RESULT_VARIABLE doctored_rc OUTPUT_VARIABLE doctored_out
                  ERROR_VARIABLE doctored_err)
  if(NOT doctored_rc EQUAL 1)
    message(FATAL_ERROR "${tag}: exit ${doctored_rc}, want 1\n"
                        "${doctored_out}${doctored_err}")
  endif()
  if(NOT doctored_out MATCHES "REGRESSION: [a-z_]+ ${key}:")
    message(FATAL_ERROR "${tag}: no regression names ${key}\n"
                        "${doctored_out}")
  endif()
endfunction()

# answer_hash with its low bit flipped: the last decimal digit XOR 1. The
# hash is above 2^53, so only a literal comparison sees this.
string(REGEX MATCH "\"answer_hash\": ([0-9]+)" hash_entry "${fresh}")
set(hash "${CMAKE_MATCH_1}")
string(REGEX REPLACE "^(.*)([0-9])$" "\\1" hash_head "${hash}")
string(REGEX REPLACE "^(.*)([0-9])$" "\\2" hash_digit "${hash}")
math(EXPR flipped_digit "${hash_digit} ^ 1")
string(REPLACE "\"answer_hash\": ${hash}"
               "\"answer_hash\": ${hash_head}${flipped_digit}"
       doctored "${fresh}")
expect_regression(hash_bit answer_hash "${doctored}")

# A structural key deleted from the current record.
string(REGEX REPLACE "\n *\"ases\": [0-9]+," "" doctored "${fresh}")
expect_regression(missing_key ases "${doctored}")

# A perf key x30, outside the x25 band.
string(REGEX MATCH "\"serve_qps\": ([0-9]+)" qps_entry "${fresh}")
math(EXPR slow_qps "${CMAKE_MATCH_1} * 30")
string(REPLACE "${qps_entry}" "\"serve_qps\": ${slow_qps}" doctored
       "${fresh}")
expect_regression(perf_x30 serve_qps "${doctored}")

# The trie 24 bytes bigger: a layout change, caught exactly.
string(REGEX MATCH "\"trie_bytes\": ([0-9]+)" trie_entry "${fresh}")
math(EXPR bigger_trie "${CMAKE_MATCH_1} + 24")
string(REPLACE "${trie_entry}" "\"trie_bytes\": ${bigger_trie}" doctored
       "${fresh}")
expect_regression(trie_bytes trie_bytes "${doctored}")

# The untouched fresh record passes against itself.
execute_process(COMMAND ${ITM_BIN} obs report ${WORK_DIR}/BENCH_tiny.json
                        --baseline ${WORK_DIR}/BENCH_tiny.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fresh record fails against itself: ${out}${err}")
endif()
