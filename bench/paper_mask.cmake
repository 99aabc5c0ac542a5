# Masks the timing cells of bench_paper's stdout, so two runs' tables
# compare byte for byte: in tables titled "time" every cell after the row
# label, elsewhere the cells under "BG ms" and "BG+ ms" (Figs. 8/9) and
# "ms" (the tau ablation). A masked cell that holds a number becomes "T",
# right-aligned; "-", "(skip)" and all other lines stay as printed. Tables
# are "## title", a header, a rule and rows up to a blank line, each line
# a 14-column label and then 11-column cells.
#
#   cmake -DIN=paper_tables.txt -DOUT=paper_tables.masked.txt \
#         -P bench/paper_mask.cmake

file(READ ${IN} text)
if(NOT text MATCHES "\n$")
  string(APPEND text "\n")
endif()
set(out "")
set(columns "")
set(header FALSE)
# Line by line without CMake lists, which would split at ';' in the text.
while(NOT text STREQUAL "")
  string(FIND "${text}" "\n" end)
  string(SUBSTRING "${text}" 0 ${end} line)
  math(EXPR end "${end} + 1")
  string(SUBSTRING "${text}" ${end} -1 text)
  string(LENGTH "${line}" length)
  math(EXPR last "${length} - 11")  # Where the line's last whole cell starts.
  if(line MATCHES "^## ")
    string(FIND "${line}" "time" time)
    set(header TRUE)
  elseif(header)
    set(columns "")
    if(last GREATER_EQUAL 14)
      foreach(begin RANGE 14 ${last} 11)
        string(SUBSTRING "${line}" ${begin} 11 name)
        if(NOT time EQUAL -1 OR name MATCHES "^ *(BG\\+? )?ms$")
          list(APPEND columns ${begin})
        endif()
      endforeach()
    endif()
    set(header FALSE)
  elseif(line STREQUAL "")
    set(columns "")
  endif()
  foreach(begin IN LISTS columns)
    if(begin LESS_EQUAL last)
      string(SUBSTRING "${line}" ${begin} 11 cell)
      if(cell MATCHES "^ *[0-9]+(\\.[0-9]+)?$")
        string(SUBSTRING "${line}" 0 ${begin} head)
        math(EXPR end "${begin} + 11")
        string(SUBSTRING "${line}" ${end} -1 tail)
        set(line "${head}          T${tail}")
      endif()
    endif()
  endforeach()
  string(APPEND out "${line}\n")
endwhile()
file(WRITE ${OUT} "${out}")
