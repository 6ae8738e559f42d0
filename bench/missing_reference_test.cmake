# Runs snim_bench with none of its reference CSVs reachable and checks that it
# fails before any scenario starts, naming the scenario and the file.
#
#   cmake -DSNIM_BENCH=<path to snim_bench> -DWORK_DIR=<dir> -P missing_reference_test.cmake
#
# WORK_DIR is created empty three levels deep, so neither it nor its first
# three parents (the lookup path after SNIM_DATA_DIR) hold a CSV.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR}/a/b/c)
unset(ENV{SNIM_DATA_DIR})
execute_process(
  COMMAND ${SNIM_BENCH} --quick --threads 1 --filter fig10,fig3
  WORKING_DIRECTORY ${WORK_DIR}/a/b/c
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "snim_bench exited ${rc}, want 1\n${out}${err}")
endif()
if(out MATCHES "\\[1/[0-9]+\\]")
  message(FATAL_ERROR "a scenario started before the missing reference was reported\n${out}")
endif()
if(NOT err MATCHES "scenario 'fig10_ground_width': reference file 'fig10_ground_width.csv' not found")
  message(FATAL_ERROR "error does not name the scenario and the file:\n${err}")
endif()
