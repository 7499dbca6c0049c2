# Run one benchmark invocation that must be caught: it has to exit
# non-zero AND print a result line matching EXPECT (so a crash does not
# count as "caught").
#   cmake -DBENCH=<exe> -DWORKLOAD=<w> -DFAULT=<f> -DEXPECT=<regex> -P this
execute_process(
    COMMAND ${BENCH} --workload ${WORKLOAD} --seed 7 --seconds 0
            --trace 0 --size tiny --inject ${FAULT}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out)
if(code EQUAL 0)
    message(FATAL_ERROR "${WORKLOAD} --inject ${FAULT} exited 0:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR
            "${WORKLOAD} --inject ${FAULT}: no '${EXPECT}' in:\n${out}")
endif()
