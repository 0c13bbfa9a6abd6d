# Smoke-runs one bench binary at tiny scale with --json and validates the
# emitted BENCH_<name>.json against the telemetry export schema. Invoked by
# the bench_smoke ctest entries (see bench/CMakeLists.txt):
#
#   cmake -DBENCH=<path> -DVALIDATOR=<path> -DJSON=<path> [-DEXTRA_ARGS=...]
#         [-DCHECKPOINT_DIR=<path>] -P run_bench_smoke.cmake
#
# With CHECKPOINT_DIR the bench also runs with --checkpoint-dir=<path> (the
# directory is emptied first), and the run must leave a checkpoint file
# there and count it under the JSON counter fault/checkpoints_written.

if(NOT BENCH OR NOT VALIDATOR OR NOT JSON)
  message(FATAL_ERROR "run_bench_smoke.cmake needs -DBENCH, -DVALIDATOR, -DJSON")
endif()

set(args --scale=small --folds=1 --epochs=2 --seed=7 --threads=2
         --json=${JSON})
if(EXTRA_ARGS)
  list(APPEND args ${EXTRA_ARGS})
endif()
if(CHECKPOINT_DIR)
  file(REMOVE_RECURSE ${CHECKPOINT_DIR})
  list(APPEND args --checkpoint-dir=${CHECKPOINT_DIR})
endif()

file(REMOVE ${JSON})
execute_process(COMMAND ${BENCH} ${args} RESULT_VARIABLE bench_status)
if(NOT bench_status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${bench_status}")
endif()
if(NOT EXISTS ${JSON})
  message(FATAL_ERROR "${BENCH} did not write ${JSON}")
endif()

execute_process(COMMAND ${VALIDATOR} ${JSON} RESULT_VARIABLE validate_status)
if(NOT validate_status EQUAL 0)
  message(FATAL_ERROR "${VALIDATOR} rejected ${JSON}")
endif()

if(CHECKPOINT_DIR)
  file(GLOB checkpoints ${CHECKPOINT_DIR}/*)
  if(NOT checkpoints)
    message(FATAL_ERROR "${BENCH} wrote no checkpoint under ${CHECKPOINT_DIR}")
  endif()
  file(READ ${JSON} document)
  string(JSON written ERROR_VARIABLE missing
         GET "${document}" counters fault/checkpoints_written)
  if(missing OR NOT written GREATER 0)
    message(FATAL_ERROR
            "${JSON}: counter fault/checkpoints_written is not > 0 (${written})")
  endif()
endif()
