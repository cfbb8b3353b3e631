# "No silent flags" check for the standalone fuzz driver (standalone_main.cpp,
# linked into the harnesses of non-Clang builds), run by ctest (see the
# add_test in the top-level CMakeLists): a -runs=/-mutate=/-seed= value that
# is not an unsigned decimal, a nonzero -runs= and any flag the driver does
# not implement must exit 2 instead of being read as 0 or skipped. Each case
# pairs one bad flag with a valid corpus, so exit 2 can only come from the
# flag under test; two valid invocations must still exit 0.
#
# Expects -DHARNESS=<a fuzz_* binary>, -DCORPUS=<its corpus directory> and
# -DWORK_DIR=<scratch> (smoke mutation writes crash-candidate.bin there).

if(NOT HARNESS OR NOT CORPUS OR NOT WORK_DIR)
  message(FATAL_ERROR "driver_flags.cmake needs -DHARNESS=... -DCORPUS=... "
                      "and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(failures "")
function(expect_exit want)
  execute_process(COMMAND ${HARNESS} ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}" TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL want)
    string(REPLACE ";" " " cmd "${ARGN}")
    set(failures "${failures}\n  exit ${rc} (want ${want}): ${cmd}"
        PARENT_SCOPE)
  endif()
endfunction()

expect_exit(2 -mutate=abc ${CORPUS})
expect_exit(2 -mutate= ${CORPUS})
expect_exit(2 -mutate=-1 ${CORPUS})
expect_exit(2 -mutate=10x ${CORPUS})
expect_exit(2 -mutate=99999999999999999999 ${CORPUS})
expect_exit(2 -mutate=5 -seed=xyz ${CORPUS})
expect_exit(2 -mutate=5 -seed=+3 ${CORPUS})
expect_exit(2 -runs=zz ${CORPUS})
expect_exit(2 -runs=5 ${CORPUS})
expect_exit(2 -max_total_time=60 ${CORPUS})
expect_exit(2 -bogus ${CORPUS})

expect_exit(0 -runs=0 ${CORPUS})
expect_exit(0 -mutate=50 -seed=3 ${CORPUS})

if(failures)
  message(FATAL_ERROR "fuzz driver flag handling:${failures}")
endif()
