# `merlin_cli campaign` with flags and `merlin_cli suite --out` on the
# equivalent one-entry manifest must name the same spec: the key the
# campaign prints is the key the suite stores its result under, and
# both report the same AVF.
#
#   cmake -DCLI=path/to/merlin_cli -DWORK=scratch/dir \
#         -P tests/campaign_matches_suite.cmake

if(NOT CLI OR NOT WORK)
    message(FATAL_ERROR "usage: cmake -DCLI=merlin_cli -DWORK=dir -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(WRITE "${WORK}/manifest.json" [=[
{"campaigns": [{"workload": "qsort", "structure": "sq", "sq_entries": 16,
                "faults": 300, "seed": 7, "window": 0, "mode": "truth"}]}
]=])

execute_process(
    COMMAND "${CLI}" campaign --workload qsort --structure sq
            --sq-entries 16 --faults 300 --seed 7 --window 0 --mode truth
    OUTPUT_VARIABLE campaign_out
    ERROR_VARIABLE campaign_err
    RESULT_VARIABLE campaign_rc)
if(NOT campaign_rc EQUAL 0)
    message(FATAL_ERROR "campaign failed (${campaign_rc}): ${campaign_err}")
endif()
execute_process(
    COMMAND "${CLI}" suite "${WORK}/manifest.json"
            --out "${WORK}/store.json"
    OUTPUT_VARIABLE suite_out
    ERROR_VARIABLE suite_err
    RESULT_VARIABLE suite_rc)
if(NOT suite_rc EQUAL 0)
    message(FATAL_ERROR "suite failed (${suite_rc}): ${suite_err}")
endif()

if(NOT campaign_out MATCHES "spec key: ([0-9a-f]+)")
    message(FATAL_ERROR "campaign printed no spec key:\n${campaign_out}")
endif()
set(campaign_key "${CMAKE_MATCH_1}")
file(READ "${WORK}/store.json" store)
string(JSON stored_key MEMBER "${store}" campaigns 0)
if(NOT campaign_key STREQUAL stored_key)
    message(FATAL_ERROR
        "campaign key ${campaign_key} is not the stored key ${stored_key}")
endif()

# The campaign report's "AVF x%" line and the suite table's AVF% column
# print the same estimate to the same three decimals.
if(NOT campaign_out MATCHES "\nAVF ([0-9.]+)%")
    message(FATAL_ERROR "campaign printed no AVF:\n${campaign_out}")
endif()
set(campaign_avf "${CMAKE_MATCH_1}")
if(NOT suite_out MATCHES "\nqsort +SQ +truth +[0-9]+ +[0-9]+ +[0-9]+ +([0-9.]+)%")
    message(FATAL_ERROR "suite printed no AVF row:\n${suite_out}")
endif()
set(suite_avf "${CMAKE_MATCH_1}")
if(NOT campaign_avf STREQUAL suite_avf)
    message(FATAL_ERROR
        "campaign AVF ${campaign_avf}% differs from suite AVF ${suite_avf}%")
endif()
message(STATUS "key ${campaign_key}, AVF ${campaign_avf}% from both")
