# Export check for object files: fails unless the objects together define
# exactly the ALLOWED global/weak symbols (mangled names) and nothing else.
#
#   cmake -DNM=nm "-DOBJECTS=a.o;b.o" "-DALLOWED=sym1;sym2" \
#         -P check_exports.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT NM OR NOT OBJECTS OR NOT ALLOWED)
  message(FATAL_ERROR "usage: -DNM=<nm> -DOBJECTS=<objs> -DALLOWED=<syms>")
endif()

set(found)
set(unexpected)
foreach(obj IN LISTS OBJECTS)
  execute_process(COMMAND ${NM} --extern-only --defined-only ${obj}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${obj}: ${err}")
  endif()
  string(REPLACE "\n" ";" lines "${out}")
  foreach(line IN LISTS lines)
    # "<address> <type> <name>"; the address is blank for some types.
    if(NOT line MATCHES "^[0-9A-Fa-f]* *([A-Za-z]) (.+)$")
      continue()
    endif()
    set(sym "${CMAKE_MATCH_2}")
    if(sym IN_LIST ALLOWED)
      list(APPEND found "${sym}")
    else()
      list(APPEND unexpected "${CMAKE_MATCH_1} ${sym}")
    endif()
  endforeach()
endforeach()

if(unexpected)
  string(REPLACE ";" "\n  " shown "${unexpected}")
  message(FATAL_ERROR
          "unexpected global/weak symbols in ${OBJECTS}:\n  ${shown}\n"
          "Give them internal linkage (an unnamed namespace).")
endif()
foreach(sym IN LISTS ALLOWED)
  if(NOT sym IN_LIST found)
    message(FATAL_ERROR "expected symbol ${sym} not defined in ${OBJECTS}")
  endif()
endforeach()
message(STATUS "exports ok: ${ALLOWED}")
