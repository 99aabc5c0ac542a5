# CTest smoke for the --queries batch driver: serve a small JSONL batch
# (including one bad line and interleaved insert/delete update ops)
# through a single dynamic SolverSession and check that every good line
# produced an ok record while the bad one failed without stopping the
# stream. Then check that a single solve is a one-line batch: flags
# equivalent to the first query line print exactly that line's response.
# Expects -DCLI=..., -DOUT_DIR=... .

set(queries ${OUT_DIR}/smoke_queries.jsonl)
file(WRITE ${queries}
  "{\"algorithm\": \"bigreedy\", \"k\": 6, \"alpha\": 0.2, \"params\": {\"net_size\": 120}}\n"
  "{\"algorithm\": \"bigreedy\", \"k\": 6, \"alpha\": 0.2, \"params\": {\"net_size\": 120}}\n"
  "{\"op\": \"insert\", \"point\": [0.9, 0.9, 0.9], \"group\": 1, \"id\": \"ins\"}\n"
  "{\"op\": \"delete\", \"rows\": [0, 1], \"id\": \"del\"}\n"
  "{\"op\": \"delete\", \"rows\": [0], \"id\": \"redel\"}\n"
  "{\"algorithm\": \"intcov\", \"k\": 4, \"bounds\": \"balanced\", \"alpha\": 0.5, \"id\": \"smoke\"}\n"
  "{\"algorithm\": \"no_such_algo\", \"k\": 4}\n"
  "{\"algorithm\": \"rdp_greedy\", \"k\": 4}\n")

execute_process(
  COMMAND ${CLI} --synthetic=independent --n=400 --dim=3 --groups=2
          --queries=${queries}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)

# Exit 3 = batch completed with failed lines (the bad algorithm and the
# double delete), which is exactly what this stream must produce.
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "expected exit 3 (failed lines), got rc=${rc}\n"
          "stdout:\n${out}\nstderr:\n${err}")
endif()

string(REGEX MATCHALL "\"ok\": true" ok_lines "${out}")
list(LENGTH ok_lines ok_count)
if(NOT ok_count EQUAL 6)
  message(FATAL_ERROR "expected 6 ok lines, got ${ok_count}\n${out}")
endif()

if(NOT out MATCHES "\"id\": \"smoke\"")
  message(FATAL_ERROR "query ids are not echoed:\n${out}")
endif()
if(NOT out MATCHES "\"ok\": false")
  message(FATAL_ERROR "the bad lines did not produce error records:\n${out}")
endif()

# The insert lands at row 400 (the table had 400 rows), the delete leaves
# 399 live rows (400 - 2 + 1 inserted), and deleting row 0 again must fail
# without stopping the stream.
if(NOT out MATCHES "\"op\": \"insert\", \"row\": 400")
  message(FATAL_ERROR "insert did not report row 400:\n${out}")
endif()
if(NOT out MATCHES "\"op\": \"delete\", \"erased\": 2, \"version\": [0-9]+, \"live_rows\": 399")
  message(FATAL_ERROR "delete did not report 399 live rows:\n${out}")
endif()
if(NOT out MATCHES "\"id\": \"redel\", \"ok\": false")
  message(FATAL_ERROR "double delete did not fail:\n${out}")
endif()
if(NOT err MATCHES "cache:")
  message(FATAL_ERROR "no cache report on stderr:\n${err}")
endif()

# The two identical bigreedy queries must serve bit-identical rows.
string(REGEX MATCHALL "\"rows\": \\[[^]]*\\]" row_lists "${out}")
list(GET row_lists 0 first_rows)
list(GET row_lists 1 second_rows)
if(NOT first_rows STREQUAL second_rows)
  message(FATAL_ERROR "warm repeat diverged from first serve:\n"
          "${first_rows}\nvs\n${second_rows}")
endif()

# A single solve whose flags say what the first line says prints exactly
# the response that line got (timings blanked). The stray --format, a flag
# that no longer exists, draws the unknown-flag warning and nothing else.
execute_process(
  COMMAND ${CLI} --synthetic=independent --n=400 --dim=3 --groups=2
          --algo=bigreedy --k=6 --alpha=0.2 --net_size=120 --format=json
  OUTPUT_VARIABLE single
  ERROR_VARIABLE single_err
  RESULT_VARIABLE single_rc)
if(NOT single_rc EQUAL 0)
  message(FATAL_ERROR "single solve failed, rc=${single_rc}\n${single_err}")
endif()
if(NOT single_err MATCHES "warning: unknown flag --format ignored")
  message(FATAL_ERROR "no unknown-flag warning for --format:\n${single_err}")
endif()
set(timings "\"(solve_ms|total_ms)\": [0-9.]+")
string(REGEX REPLACE "\n.*" "" first_line "${out}")
string(REGEX REPLACE "${timings}" "\"\\1\": T" first_line "${first_line}")
string(REGEX REPLACE "${timings}" "\"\\1\": T" single "${single}")
if(NOT single STREQUAL "${first_line}\n")
  message(FATAL_ERROR "single solve differs from its batch line:\n"
          "${single}vs\n${first_line}")
endif()
