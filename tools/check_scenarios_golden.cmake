# CTest script: runs `cntyield_cli scenarios` at the pinned cheap settings
# and diffs its *table rows* against the checked-in golden
# (tools/golden/scenarios_rows.txt). The rows are the PR 5 scenarios output
# — the campaign-runner rebuild of the subcommand must not move a digit.
#
# Only lines starting with '|' are compared: the footer carries timings,
# and error lines carry a contract's source file and line number (relative
# to src/, CNY_EXPECT), which move with unrelated edits.
#
# Usage:
#   cmake -DCLI=<cntyield_cli> -DGOLDEN=<scenarios_rows.txt>
#         [-DEXTRA=--via-service] -P check_scenarios_golden.cmake
if(NOT DEFINED CLI OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DGOLDEN=... [-DEXTRA=...] -P check_scenarios_golden.cmake")
endif()

# The golden was captured at exactly these settings; keep them cheap enough
# for tier-1 (~2 s) but deep enough to cross the feasibility frontier.
set(args scenarios --points=4 --mc-samples=200 --seed=3 --selectivity=6
    --prm-lo=0.999 --prm-hi=0.9999999 --with-shorts --noise-fails=0.00001
    --threads=1)
if(DEFINED EXTRA)
  list(APPEND args ${EXTRA})
endif()

execute_process(COMMAND ${CLI} ${args}
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scenarios exited with ${rc}:\n${out}")
endif()

string(REPLACE "\n" ";" lines "${out}")
set(rows "")
foreach(line IN LISTS lines)
  if(line MATCHES "^\\|")
    string(APPEND rows "${line}\n")
  endif()
endforeach()

file(READ ${GOLDEN} golden)
if(NOT rows STREQUAL golden)
  message(FATAL_ERROR "scenarios table rows diverged from ${GOLDEN}\n"
                      "--- got ---\n${rows}--- want ---\n${golden}")
endif()
