# Tree-wide lint gate with three-valued exit handling: 0 passes, 1 means
# new findings (shown), 2 means the lint itself hit an I/O/config/parse
# error — reported as such, never conflated with findings. bench and
# examples are built and run like the rest, so they are scanned too.
execute_process(
  COMMAND ${LINT_EXE} --repo-root ${REPO_ROOT}
          ${REPO_ROOT}/src ${REPO_ROOT}/tests ${REPO_ROOT}/tools
          ${REPO_ROOT}/bench ${REPO_ROOT}/examples
  OUTPUT_VARIABLE lint_out
  ERROR_VARIABLE lint_err
  RESULT_VARIABLE status)
if(status EQUAL 0)
  return()
elseif(status EQUAL 1)
  message(FATAL_ERROR "ede_lint: new findings in the tree\n${lint_out}")
else()
  message(FATAL_ERROR "ede_lint: internal/I-O/parse error "
                      "(exit ${status})\n${lint_out}${lint_err}")
endif()
