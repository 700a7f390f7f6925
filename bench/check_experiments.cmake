# Checks EXPERIMENTS.md against the benches whose numbers it reports.
#
#   cmake -DDOC=EXPERIMENTS.md -DBENCH_DIR=build/bench \
#         -DBENCHES=table1_dspstone,overhead_cycles,... \
#         -P bench/check_experiments.cmake
#
# The doc is split into sections at its "##" headings. A section names its
# bench on a line that starts with `bench/NAME`. Each such bench runs with
# its timing loops filtered out, and the section's table rows (the lines
# that start with "|") must equal the lines starting with "|" that the
# bench printed, in order. The check fails if a bench exits nonzero, if a
# section has table rows but names no bench, or if a bench listed in
# BENCHES is named by no section. To update the doc, run the bench and
# paste its rows.
cmake_minimum_required(VERSION 3.16)

# Move the first line of the variable named `text` into `line`. (Lines are
# cut by hand: a CMake list would split rows at ';' and merge them at '['.)
macro(pop_line text line)
  string(FIND "${${text}}" "\n" _nl)
  if(_nl EQUAL -1)
    set(${line} "${${text}}")
    set(${text} "")
  else()
    string(SUBSTRING "${${text}}" 0 ${_nl} ${line})
    math(EXPR _nl "${_nl} + 1")
    string(SUBSTRING "${${text}}" ${_nl} -1 ${text})
  endif()
endmacro()

# Run bench/`bench` and compare the rows it prints with `rows`. Sets `err`
# to what went wrong, or to "" when they match.
function(check_bench bench rows err)
  execute_process(COMMAND "${BENCH_DIR}/${bench}" "--benchmark_filter=^$"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE log)
  if(NOT rc EQUAL 0)
    set(${err} "bench/${bench} exited with ${rc}\n${log}" PARENT_SCOPE)
    return()
  endif()
  set(printed "")
  while(NOT out STREQUAL "")
    pop_line(out line)
    if(line MATCHES "^\\|")
      string(APPEND printed "${line}\n")
    endif()
  endwhile()
  if(printed STREQUAL rows)
    set(${err} "" PARENT_SCOPE)
    return()
  endif()
  set(n 1)
  while(1)
    pop_line(rows want)
    pop_line(printed got)
    if(NOT want STREQUAL got)
      break()
    endif()
    math(EXPR n "${n} + 1")
  endwhile()
  set(${err} "table row ${n} differs from bench/${bench}:
    doc:   ${want}
    bench: ${got}" PARENT_SCOPE)
endfunction()

string(REPLACE "," ";" BENCHES "${BENCHES}")
file(READ "${DOC}" doc)
string(APPEND doc "\n## (end)\n")  # closes the last section
set(failed "")
set(checked "")
set(heading "(text before the first heading)")
set(bench "")
set(rows "")
while(NOT doc STREQUAL "")
  pop_line(doc line)
  if(line MATCHES "^##")
    if(NOT bench STREQUAL "")
      check_bench(${bench} "${rows}" err)
      list(APPEND checked ${bench})
      if(NOT err STREQUAL "")
        string(APPEND failed "${heading}\n  ${err}\n")
      endif()
    elseif(NOT rows STREQUAL "")
      string(APPEND failed "${heading}\n  has table rows but no bench\n")
    endif()
    set(heading "${line}")
    set(bench "")
    set(rows "")
  elseif(line MATCHES "^`bench/([A-Za-z0-9_]+)`")
    set(bench ${CMAKE_MATCH_1})
  elseif(line MATCHES "^\\|")
    string(APPEND rows "${line}\n")
  endif()
endwhile()
foreach(b IN LISTS BENCHES)
  if(NOT b IN_LIST checked)
    string(APPEND failed "no section names bench/${b}\n")
  endif()
endforeach()
if(NOT failed STREQUAL "")
  message(FATAL_ERROR "${DOC} does not match the benches:\n${failed}")
endif()
list(LENGTH checked n)
message(STATUS "${n} sections of ${DOC} match their benches")
