# Replays a committed request batch through `fairhms_cli --queries` on a
# synthetic table and compares the responses with committed golden lines.
# Timings are blanked (the goldens hold them as T); the two solve-quality
# doubles are blanked on both sides too, since, as in protocol_test.cc, they
# may differ in the last ulp across compilers. Rows, counts, notes and
# errors must match byte for byte.
# Expects -DCLI=..., -DREQUESTS=..., -DRESPONSES=..., and -DDATA="flags" (the
# fairhms_cli dataset flags, separated by ';' or spaces).

separate_arguments(data_flags UNIX_COMMAND "${DATA}")
execute_process(
  COMMAND ${CLI} ${data_flags} --queries=${REQUESTS}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fairhms_cli exited ${rc}\nstderr:\n${err}")
endif()
file(READ ${RESPONSES} golden)

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
  message(FATAL_ERROR "Answers moved against ${RESPONSES}.\n"
          "expected:\n${golden}\ngot:\n${out}")
endif()
