# Replays golden/bigreedy_d6_requests.jsonl (strict, union, linear tau
# search, the plain scan, bigreedy+ and a warm alpha sweep) through
# `fairhms_cli --queries` on anticorrelated n = 1500, d = 6, 3 groups, and
# compares the responses with golden/bigreedy_d6_responses.jsonl. BiGreedy
# orders its lazy heap by candidate-cache gain bounds but selects on exact
# gains, so no change to the cache format may move these bytes. Timings
# are blanked (the golden holds them as T); the two solve-quality doubles
# are blanked on both sides too, since, as in protocol_test.cc, they may
# differ in the last ulp across compilers.
# Expects -DCLI=..., -DGOLDEN_DIR=... .

execute_process(
  COMMAND ${CLI} --synthetic=anticorrelated --n=1500 --dim=6 --groups=3
          --queries=${GOLDEN_DIR}/bigreedy_d6_requests.jsonl
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fairhms_cli exited ${rc}\nstderr:\n${err}")
endif()
file(READ ${GOLDEN_DIR}/bigreedy_d6_responses.jsonl golden)

function(blank text var)
  string(REGEX REPLACE "\"(solve_ms|total_ms)\": [0-9.]+" "\"\\1\": T"
         text "${text}")
  string(REGEX REPLACE
         "\"(happiness_ratio|algo_mhr_estimate)\": [-0-9.e+]+" "\"\\1\": Q"
         text "${text}")
  set(${var} "${text}" PARENT_SCOPE)
endfunction()
blank("${out}" out)
blank("${golden}" golden)

if(NOT out STREQUAL golden)
  message(FATAL_ERROR "BiGreedy d = 6 answers moved.\n"
          "expected:\n${golden}\ngot:\n${out}")
endif()
