# Compares the full `fairhms_cli --list_algos` output (names, capability
# tokens, summaries, parameter schemas) with a committed file, so a dropped
# static registrar or a changed schema shows as a diff.
# Expects -DCLI=..., -DEXPECTED=... .

execute_process(
  COMMAND ${CLI} --list_algos
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fairhms_cli --list_algos exited ${rc}\n${err}")
endif()
file(READ ${EXPECTED} expected)
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "--list_algos differs from ${EXPECTED}.\n"
          "expected:\n${expected}\ngot:\n${out}")
endif()
