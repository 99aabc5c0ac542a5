# CTest smoke for bench_paper: six quick panels on a small anti-correlated
# replica must exit 0 and print each selected panel's banner exactly once,
# in panel-table order. Timings are not checked.
# Expects -DPAPER=<bench_paper> -DOUT=<stdout file>.

execute_process(COMMAND ${PAPER}
                        --panels=table1,table2,fig8_9,fig10_11,ablation_bounds,tau_ablation
                        --anticor_n=500
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_paper failed (rc=${rc})")
endif()

file(READ ${OUT} out)
set(prev -1)
foreach(banner "=== Table 1:" "=== Table 2:" "=== Figs. 8 + 9:"
               "=== Figs. 10 + 11:" "=== Ablation: fairness-scheme"
               "=== Ablation: BiGreedy tau search")
  string(FIND "${out}" "${banner}" first)
  string(FIND "${out}" "${banner}" last REVERSE)
  if(first EQUAL -1)
    message(SEND_ERROR "banner '${banner}' missing")
  elseif(NOT first EQUAL last)
    message(SEND_ERROR "banner '${banner}' printed more than once")
  elseif(NOT first GREATER prev)
    message(SEND_ERROR "banner '${banner}' out of panel-table order")
  endif()
  set(prev ${first})
endforeach()
