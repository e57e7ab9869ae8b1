# Command-line checks for bench_paper, run by ctest as
#
#   cmake -DMODE=<args|jobs> -DBENCH_PAPER=<exe> -DWORK_DIR=<dir>
#         -P bench_paper_cli.cmake
#
# MODE=args: every malformed command line exits 2 (the tools' usage-error
#   code) before running anything.
# MODE=jobs: the cheap figures, the fuzz-mix and fault studies among them,
#   print byte-identical stdout at --jobs 1 and --jobs 3, and write
#   BENCH_*.json files that are byte-identical once their wall sections are
#   dropped.

if(MODE STREQUAL "args")
  foreach(bad "--bogus" "fig99" "--jobs" "--jobs 0" "--jobs x" "--full -v"
              "table1 --job 2")
    separate_arguments(argv UNIX_COMMAND "${bad}")
    execute_process(COMMAND "${BENCH_PAPER}" ${argv} RESULT_VARIABLE rc
                    OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "bench_paper ${bad}: exit '${rc}', want 2")
    endif()
  endforeach()
elseif(MODE STREQUAL "jobs")
  set(figures table1 table2 table3 fig3 fig7 fig13 fuzzmix faults)
  foreach(jobs 1 3)
    set(dir "${WORK_DIR}/jobs${jobs}")
    file(REMOVE_RECURSE "${dir}")
    file(MAKE_DIRECTORY "${dir}")
    execute_process(COMMAND "${BENCH_PAPER}" --jobs ${jobs} ${figures}
                    WORKING_DIRECTORY "${dir}" RESULT_VARIABLE rc
                    OUTPUT_VARIABLE stdout_${jobs})
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "bench_paper --jobs ${jobs}: exit '${rc}'")
    endif()
  endforeach()
  if(NOT stdout_1 STREQUAL stdout_3)
    message(FATAL_ERROR "stdout differs between --jobs 1 and --jobs 3")
  endif()

  file(GLOB gauges RELATIVE "${WORK_DIR}/jobs1" "${WORK_DIR}/jobs1/BENCH_*.json")
  list(LENGTH gauges count)
  if(NOT count EQUAL 8)
    message(FATAL_ERROR "want 8 gauges, got ${count}: ${gauges}")
  endif()
  foreach(gauge ${gauges})
    foreach(jobs 1 3)
      file(READ "${WORK_DIR}/jobs${jobs}/${gauge}" json_${jobs})
      # "wall" is the last member of every gauge.
      string(REGEX REPLACE ",[ \n]*\"wall\": {[^}]*}" "" json_${jobs}
             "${json_${jobs}}")
    endforeach()
    if(NOT json_1 MATCHES "\"model\"" OR json_1 MATCHES "\"wall\"")
      message(FATAL_ERROR "${gauge}: unexpected layout:\n${json_1}")
    endif()
    if(NOT json_1 STREQUAL json_3)
      message(FATAL_ERROR "${gauge} differs between --jobs 1 and --jobs 3")
    endif()
  endforeach()
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
