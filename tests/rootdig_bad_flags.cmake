# rootdig must refuse a bad +vp, +loss or +time value, an unknown +option,
# an unknown qtype and a third positional before it builds its campaign:
# exit code 1, a message naming the flag or token, and no answer printed.
# Read leniently, each case would run: +vp=abc from vantage point 0,
# +loss=abc without loss, +time=2023-02-30 on March 2, +dnsec as the qname
# "+dnsec.", SAO as qtype ANY, and `. NS extra` without `extra`.
#
#   cmake -DROOTDIG=<path to rootdig> -P rootdig_bad_flags.cmake

# Runs rootdig with ARGN and fails unless it exits 1 with `expected` in its
# stderr and nothing on stdout.
function(expect_refused expected)
  execute_process(
    COMMAND ${ROOTDIG} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  string(FIND "${err}" "${expected}" at)
  if(NOT code EQUAL 1 OR at EQUAL -1 OR NOT out STREQUAL "")
    message(FATAL_ERROR "rootdig ${ARGN}: exit '${code}', stderr: ${err} "
                        "stdout: ${out}")
  endif()
endfunction()

foreach(case "+vp=abc" "+vp=-1" "+vp=3x" "+vp=" "+vp=18446744073709551616"
             "+loss=abc" "+loss=-0.1" "+loss=1.5" "+loss=nan" "+loss=inf"
             "+loss=0.1x" "+time=2023-02-30" "+time=2023-13-01"
             "+time=2023-00-10" "+time=abc" "+time=2023-1-05"
             "+time=2023-01-05x")
  string(REGEX MATCH "^\\+[a-z]+" flag "${case}")
  expect_refused("rootdig: ${flag} wants " . SOA ${case})
endforeach()

expect_refused("rootdig: unknown option '+dnsec'" +dnsec)
expect_refused("rootdig: unknown option '+dnsec'" . SOA +dnsec)
expect_refused("rootdig: unknown option '+'" . SOA +)
expect_refused("rootdig: unknown option '+vp'" . SOA +vp)
expect_refused("rootdig: unknown qtype 'SAO'" . SAO)
expect_refused("rootdig: unknown qtype 'TYPE6'" . TYPE6)
expect_refused("rootdig: unexpected argument 'extra'" . NS extra)
expect_refused("rootdig: unexpected argument 'extra'" @193.0.14.129 . NS extra)

# A literal ANY is a real qtype and stays valid, in any case.
foreach(qtype ANY any)
  execute_process(
    COMMAND ${ROOTDIG} . ${qtype}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT code EQUAL 0 OR NOT out MATCHES "status: ")
    message(FATAL_ERROR "rootdig . ${qtype}: exit '${code}', stderr: ${err} "
                        "stdout: ${out}")
  endif()
endforeach()
