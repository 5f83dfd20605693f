# Gate of one bench: run ${BENCH} tiny in the working directory and
# compare the ${REPORT} it writes with ${BASELINE}, cell by cell. The
# host map is never compared; with STRUCTURE_ONLY every virt value is
# masked too, so only the labels and the metric keys must match. With
# CELLS set, only the lines matching that regex are compared.
#
#   cmake -DBENCH=<binary> -DREPORT=BENCH_<name>.json
#         -DBASELINE=<baseline file> -DSTRUCTURE_ONLY=ON|OFF
#         [-DCELLS=<regex>] -P gate.cmake
cmake_minimum_required(VERSION 3.16)
file(REMOVE ${REPORT})
execute_process(COMMAND ${CMAKE_COMMAND} -E env ASYMNVM_BENCH_TINY=1
                        ${BENCH}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

file(READ ${REPORT} got)
file(READ ${BASELINE} want)
foreach(side got want)
    set(text "${${side}}")
    string(REGEX REPLACE ", \"host\": {[^}]*}" "" text "${text}")
    if(STRUCTURE_ONLY)
        string(REGEX REPLACE ": (null|-?[0-9][^,}]*)" ": #" text "${text}")
    endif()
    # Brackets and semicolons would bend CMake's list splitting.
    string(REGEX REPLACE "[][;]" "_" text "${text}")
    string(REPLACE "\n" ";" ${side} "${text}")
    if(CELLS)
        list(FILTER ${side} INCLUDE REGEX "${CELLS}")
    endif()
endforeach()

list(LENGTH got ngot)
list(LENGTH want nwant)
if(nwant EQUAL 0)
    message(FATAL_ERROR "${BASELINE}: no cell matches '${CELLS}'")
endif()
if(NOT ngot EQUAL nwant)
    message(FATAL_ERROR "${REPORT}: ${ngot} lines, baseline ${nwant}")
endif()
math(EXPR last "${ngot} - 1")
foreach(i RANGE ${last})
    list(GET got ${i} g)
    list(GET want ${i} w)
    if(NOT g STREQUAL w)
        # Name the first field that moved, and the cell it is in.
        string(REGEX MATCH "\"labels\": {[^}]*}" cell "${g}")
        string(REPLACE ", " ";" g "${g}")
        string(REPLACE ", " ";" w "${w}")
        set(j 0)
        while(1)
            list(GET g ${j} field_got)
            list(GET w ${j} field_want)
            if(NOT field_got STREQUAL field_want)
                break()
            endif()
            math(EXPR j "${j} + 1")
        endwhile()
        math(EXPR line "${i} + 1")
        message(FATAL_ERROR "${REPORT} line ${line} (${cell}) differs "
                            "from the baseline:\n  got  ${field_got}\n"
                            "  want ${field_want}")
    endif()
endforeach()
