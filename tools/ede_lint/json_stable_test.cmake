# Regression test: ede_lint's JSON diagnostics must be byte-stable across
# runs AND across --jobs values (the lint itself has to satisfy its own D1
# determinism rule; the thread pool must not reorder findings or the
# per-family counts). Invoked by ctest, see CMakeLists.txt next to it.
# Scans the same five directories as the tree gate (tree_lint_test.cmake).
set(runs "serial;parallel;parallel_again")
set(jobs_serial 1)
set(jobs_parallel 4)
set(jobs_parallel_again 4)
foreach(run IN LISTS runs)
  execute_process(
    COMMAND ${LINT_EXE} --json --jobs ${jobs_${run}} --repo-root ${REPO_ROOT}
            ${REPO_ROOT}/src ${REPO_ROOT}/tests ${REPO_ROOT}/tools
            ${REPO_ROOT}/bench ${REPO_ROOT}/examples
    OUTPUT_FILE ${WORK_DIR}/lint_${run}.json
    RESULT_VARIABLE status_${run})
  # Exit codes are three-valued: 0 clean and 1 findings both produce a
  # full report to compare; 2 means the lint itself broke.
  if(status_${run} EQUAL 2 OR status_${run} GREATER 2)
    message(FATAL_ERROR "ede_lint --jobs ${jobs_${run}} failed with I/O or "
                        "parse error (exit ${status_${run}})")
  endif()
endforeach()
if(NOT status_serial EQUAL status_parallel)
  message(FATAL_ERROR "exit code differs between --jobs 1 "
                      "(${status_serial}) and --jobs 4 (${status_parallel})")
endif()
foreach(other parallel parallel_again)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/lint_serial.json ${WORK_DIR}/lint_${other}.json
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "ede_lint --json output differs between --jobs 1 "
                        "and --jobs 4 (${other} run)")
  endif()
endforeach()
