# CTest for bench_paper's flag checks: --anticor_n < 1, --k < 1 and an
# unknown --panels name each exit 1 with a flag error on stderr (no abort,
# no tables), and the unknown-panel error lists the valid names.
# Expects -DPAPER=<bench_paper>.

# reject(<case> <expected stderr text> <flags...>)
function(reject name want)
  execute_process(COMMAND ${PAPER} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "${want}" at)
  if(NOT rc STREQUAL "1")
    message(SEND_ERROR "${name}: rc=${rc}, want 1")
  elseif(NOT out STREQUAL "")
    message(SEND_ERROR "${name}: printed tables before refusing")
  elseif(at EQUAL -1)
    message(SEND_ERROR "${name}: stderr lacks '${want}': ${err}")
  endif()
endfunction()

reject(anticor_n "--anticor_n=-5: must be >= 1" --anticor_n=-5 --panels=table2)
reject(k "--k=0: must be >= 1" --k=0 --panels=fig8_9)
reject(panels
       "unknown panel 'fig12' (panels: table1, table2, fig3, fig4, fig5, fig6, fig7, fig8_9, fig10_11, ablation_bounds, tau_ablation)"
       --panels=table1,fig12)
