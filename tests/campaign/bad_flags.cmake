# "No silent flags" check for the non-campaign CLIs, run by ctest (see the
# add_test in the top-level CMakeLists): a numeric flag value that is not a
# positive decimal integer in the flag's range must be a usage error
# (exit 2), never parsed as 0, wrapped around or left to abort. Each case pairs one bad flag with otherwise valid,
# fast arguments, so exit 2 can only come from the flag under test.
#
# Expects -DEVENTLOOP=<bench_eventloop_bench>, -DNETSTACK=<bench_netstack_bench>,
# -DWATCH=<campaign_watch> and -DWORK_DIR=<scratch>.

if(NOT EVENTLOOP OR NOT NETSTACK OR NOT WATCH OR NOT WORK_DIR)
  message(FATAL_ERROR "bad_flags.cmake needs -DEVENTLOOP=... -DNETSTACK=... "
                      "-DWATCH=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/progress.jsonl" "")

set(failures "")
function(expect_usage_error)
  # The timeout bounds a wrapped-around value that would otherwise run
  # (or spin) for hours; a timed-out case counts as a failure.
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}" TIMEOUT 30
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    string(REPLACE ";" " " cmd "${ARGN}")
    set(failures "${failures}\n  exit ${rc}: ${cmd}" PARENT_SCOPE)
  endif()
endfunction()

set(out --out "${WORK_DIR}/bench.json")
foreach(bench ${EVENTLOOP} ${NETSTACK})
  expect_usage_error(${bench} --scale abc ${out})
  expect_usage_error(${bench} --scale 0 ${out})
  expect_usage_error(${bench} --scale -5 ${out})
  expect_usage_error(${bench} --scale 10x ${out})
  expect_usage_error(${bench} --scale 1 --repeat zz ${out})
  expect_usage_error(${bench} --scale 1 --repeat 0 ${out})
  expect_usage_error(${bench} --scale 1 --repeat -1 ${out})
endforeach()
# Two netstack workloads run at scale / 4: a smaller --scale does no work.
expect_usage_error(${NETSTACK} --scale 3 ${out})

set(progress "${WORK_DIR}/progress.jsonl")
expect_usage_error(${WATCH} ${progress} --once --interval -1)
expect_usage_error(${WATCH} ${progress} --once --interval 0)
expect_usage_error(${WATCH} ${progress} --once --interval abc)
expect_usage_error(${WATCH} ${progress} --once --interval 99999999999999999999)
expect_usage_error(${WATCH} "${WORK_DIR}" --once)

if(failures)
  message(FATAL_ERROR "flags accepted instead of rejected with exit 2:${failures}")
endif()
