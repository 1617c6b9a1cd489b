# rootdig must refuse a bad +vp, +loss or +time value before it builds its
# campaign: exit code 1, a message naming the flag, and no answer printed.
# Read leniently, each case would run: +vp=abc from vantage point 0,
# +loss=abc without loss, and +time=2023-02-30 on March 2.
#
#   cmake -DROOTDIG=<path to rootdig> -P rootdig_bad_flags.cmake
foreach(case "+vp=abc" "+vp=-1" "+vp=3x" "+vp=" "+vp=18446744073709551616"
             "+loss=abc" "+loss=-0.1" "+loss=1.5" "+loss=nan" "+loss=inf"
             "+loss=0.1x" "+time=2023-02-30" "+time=2023-13-01"
             "+time=2023-00-10" "+time=abc" "+time=2023-1-05"
             "+time=2023-01-05x")
  string(REGEX MATCH "^\\+[a-z]+" flag "${case}")
  execute_process(
    COMMAND ${ROOTDIG} . SOA ${case}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT code EQUAL 1 OR NOT err MATCHES "rootdig: \\${flag} wants " OR
     NOT out STREQUAL "")
    message(FATAL_ERROR "rootdig ${case}: exit '${code}', stderr: ${err} "
                        "stdout: ${out}")
  endif()
endforeach()
