# End-to-end smoke of crash recovery through the campaign CLI, run by
# ctest (see the add_test in the top-level CMakeLists):
#
#   1. single-thread journaled run -> baseline report;
#   2. 4-thread journaled run over the SAME seed;
#   3. crash damage: the first shard is deleted outright (a worker whose
#      file never reached disk) and the next shard loses its last 5 bytes
#      (a SIGKILL mid-append);
#   4. --resume re-executes exactly the missing trials into fresh shards;
#   5. the resumed report must be byte-identical to the baseline
#      (cmake -E compare_files): thread count, crash and resume may change
#      timing, never bytes;
#   6. the resumed run's --progress stream counts the journaled trials as
#      done: its last line shows campaign_done == campaign_total == the
#      baseline run's trial count.
#
# Expects -DSWEEP=<path to example_campaign_sweep> and -DWORK_DIR=<scratch>.

if(NOT SWEEP OR NOT WORK_DIR)
  message(FATAL_ERROR "resume_smoke.cmake needs -DSWEEP=... and -DWORK_DIR=...")
endif()
find_program(TRUNCATE truncate)
if(NOT TRUNCATE)
  message(FATAL_ERROR "resume_smoke.cmake needs the 'truncate' utility")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(common --trials 2 --seed 4242)

function(run_sweep what)
  execute_process(COMMAND ${SWEEP} ${common} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what} run failed with exit code ${rc}")
  endif()
endfunction()

message(STATUS "resume_smoke: baseline single-thread run")
run_sweep(baseline --threads 1 --journal "${WORK_DIR}/journal-base"
          --out "${WORK_DIR}/report-base.txt"
          --progress "${WORK_DIR}/progress-base.jsonl")

message(STATUS "resume_smoke: 4-thread run")
set(journal "${WORK_DIR}/journal-t4")
run_sweep(4-thread --threads 4 --journal "${journal}"
          --out "${WORK_DIR}/report-t4.txt")

file(GLOB shards "${journal}/shard-*.dtj")
list(SORT shards)
list(LENGTH shards nshards)
if(nshards LESS 2)
  message(FATAL_ERROR "expected >= 2 shards from 4 threads, found ${nshards}")
endif()
list(GET shards 0 first)
list(GET shards 1 second)
file(REMOVE "${first}")
execute_process(COMMAND ${TRUNCATE} -s -5 "${second}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "truncating ${second} failed")
endif()
math(EXPR before "${nshards} - 1")

message(STATUS "resume_smoke: --resume after deleting one shard and tearing another")
run_sweep(resumed --threads 4 --journal "${journal}" --resume
          --out "${WORK_DIR}/report-resumed.txt"
          --progress "${WORK_DIR}/progress-resumed.jsonl")

foreach(report report-t4 report-resumed)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/report-base.txt" "${WORK_DIR}/${report}.txt"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${report}.txt differs from the single-thread baseline")
  endif()
endforeach()

# The resumed trials land in fresh shard ids — more shards than the damaged
# journal started with proves the resume path actually executed work.
file(GLOB shards "${journal}/shard-*.dtj")
list(LENGTH shards after)
if(NOT after GREATER before)
  message(FATAL_ERROR
          "resume left ${after} shards, started from ${before}: nothing re-ran")
endif()

# Reads campaign_done and campaign_total from a progress stream's last line
# into <out>_done and <out>_total.
function(read_last_progress file out)
  file(STRINGS "${file}" lines)
  list(LENGTH lines n)
  if(n EQUAL 0)
    message(FATAL_ERROR "${file} has no progress lines")
  endif()
  list(GET lines -1 last)
  string(JSON done GET "${last}" campaign_done)
  string(JSON total GET "${last}" campaign_total)
  set(${out}_done "${done}" PARENT_SCOPE)
  set(${out}_total "${total}" PARENT_SCOPE)
endfunction()

read_last_progress("${WORK_DIR}/progress-base.jsonl" base)
if(NOT base_done EQUAL base_total OR base_total LESS 2)
  message(FATAL_ERROR "baseline progress ends at ${base_done}/${base_total}")
endif()
read_last_progress("${WORK_DIR}/progress-resumed.jsonl" resumed)
if(NOT resumed_done EQUAL base_total OR NOT resumed_total EQUAL base_total)
  message(FATAL_ERROR "resumed progress ends at ${resumed_done}/"
                      "${resumed_total}, expected ${base_total}/${base_total}")
endif()

message(STATUS "resume_smoke: reports byte-identical (${before} -> ${after} shards), "
               "progress ${resumed_done}/${resumed_total}")
