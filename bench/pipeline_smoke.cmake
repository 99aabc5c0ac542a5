# CTest smoke for one pass bench: run it with ARGS and --reps=1, feed its
# CSV through bench_to_json with GATES, and require the JSON report. A
# non-zero exit from the emitter means two passes of an op disagreed on
# the checksum (2), a gate named a missing row or the CSV was malformed (1).
# Expects -DBENCH=... -DEMIT=... -DARGS=... -DGATES=... -DOUT=<path prefix>.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BENCH} ${args} --reps=1
                OUTPUT_FILE ${OUT}.csv
                RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed (rc=${bench_rc})")
endif()

file(REMOVE ${OUT}.json)
execute_process(COMMAND ${EMIT} --in=${OUT}.csv --out=${OUT}.json
                        --gate=${GATES}
                RESULT_VARIABLE emit_rc)
if(NOT emit_rc EQUAL 0)
  message(FATAL_ERROR "bench_to_json failed (rc=${emit_rc})")
endif()
if(NOT EXISTS ${OUT}.json)
  message(FATAL_ERROR "bench_to_json exited 0 but wrote no JSON report")
endif()
