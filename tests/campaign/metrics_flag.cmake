# "No silent flags" check for --metrics on a table-printing bench, run by
# ctest (see the add_test in the top-level CMakeLists). With --metrics and
# neither --out nor --json, the bench prints its own table report, so the
# telemetry section must still appear — exactly once.
#
# Expects -DBENCH=<path to bench_table2_attack_duration>.

if(NOT BENCH)
  message(FATAL_ERROR "metrics_flag.cmake needs -DBENCH=...")
endif()

execute_process(
  COMMAND ${BENCH} --trials 1 --metrics
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench failed with exit code ${rc}")
endif()

string(REGEX MATCHALL "== metrics ==" sections "${out}")
list(LENGTH sections count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR
          "expected one '== metrics ==' section with --metrics, got ${count}")
endif()
