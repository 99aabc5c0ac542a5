# CTest for bench_to_json's exit codes on small inline CSVs: a met gate
# exits 0, an unmet gate 1 and a checksum mismatch 2, each with a report;
# malformed input exits non-zero without one.
# Expects -DEMIT=... -DOUT_DIR=... .

file(MAKE_DIRECTORY ${OUT_DIR})
set(header "# bench=gates n=1\nop,pass,threads,reps,ms_min,ms_median,ms_p90,checksum\n")
set(legacy "fill,legacy,1,3,30.000,31.000,32.000,abc\n")
set(simd "fill,simd,1,3,10.000,11.000,12.000,abc\nfill,simd,2,3,6.000,6.500,7.000,abc\n")

# check(<case> <rc: 0|1|2|fail> <csv rows> <gates>): "fail" is any
# non-zero exit with no report written.
function(check name want rows gates)
  set(in ${OUT_DIR}/${name}.csv)
  set(out ${OUT_DIR}/${name}.json)
  file(WRITE ${in} "${header}${rows}")
  file(REMOVE ${out})
  execute_process(COMMAND ${EMIT} --in=${in} --out=${out} --gate=${gates}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(want STREQUAL "fail")
    if(rc EQUAL 0 OR EXISTS ${out})
      message(SEND_ERROR "${name}: rc=${rc}, want non-zero and no report")
    endif()
  elseif(NOT rc STREQUAL want OR NOT EXISTS ${out})
    message(SEND_ERROR "${name}: rc=${rc}, want ${want} and a report")
  endif()
endfunction()

check(met 0 "${legacy}${simd}" "fill:simd/legacy>=2.5,fill:simd@2/simd@1>=1.5")
check(no_gates 0 "${legacy}${simd}" "")
check(unmet 1 "${legacy}${simd}" "fill:simd/legacy>=4")
check(mismatch 2 "${legacy}${simd}fill,scalar,1,3,20.000,21.000,22.000,xyz\n"
      "fill:simd/legacy>=2.5")

check(negative_ms fail "${legacy}fill,simd,1,3,-1.000,-1.000,-1.000,abc\n" "")
check(empty_checksum fail "${legacy}fill,simd,1,3,10.000,11.000,12.000,\n" "")
check(zero_reps fail "${legacy}fill,simd,1,0,10.000,11.000,12.000,abc\n" "")
check(short_row fail "${legacy}fill,simd,1,10.000,abc\n" "")
check(duplicate fail "${legacy}${simd}fill,simd,1,3,9.000,9.000,9.000,abc\n" "")
check(missing_left fail "${legacy}${simd}" "fill:avx512/legacy>=1")
check(missing_right fail "${legacy}${simd}" "fill:simd/legacy@4>=1")
check(missing_op fail "${legacy}${simd}" "drain:simd/legacy>=1")
check(malformed_gate fail "${legacy}${simd}" "fill:simd>=1")
