# scenario_lab must refuse a bad --tld or --workers value before it builds
# anything: exit code 1 and a message naming the flag. Each case would run
# (or, for --tld past the TLD generator's reach, never return) if the value
# were read leniently, so the timeout turns a hang into a failure.
#
# `--check` must likewise refuse a scenario file whose deployment line gives
# a letter no global site (the run crashed routing to it): exit code 1 and
# the line's number.
#
#   cmake -DSCENARIO_LAB=<path to scenario_lab> -P scenario_lab_bad_flags.cmake
foreach(case "--workers;abc" "--workers;0" "--tld;-1" "--tld;182338")
  list(GET case 0 flag)
  list(GET case 1 value)
  execute_process(
    COMMAND ${SCENARIO_LAB} run ddos-c-globals --smoke ${case}
    RESULT_VARIABLE code
    OUTPUT_QUIET
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT code EQUAL 1 OR NOT err MATCHES "scenario_lab: ${flag} ")
    message(FATAL_ERROR "scenario_lab ${flag} ${value}: exit '${code}', "
                        "stderr: ${err}")
  endif()
endforeach()

# ddos-c-globals with its event line replaced by a deployment without a
# global site, written to the working directory.
file(READ ${CMAKE_CURRENT_LIST_DIR}/../examples/scenarios/ddos-c-globals.scn
     scn)
foreach(local "0,0,0,0,0,0" "1,0,0,0,0,0")
  string(REGEX REPLACE "\nevent [^\n]*"
         "\ndeployment c global 0,0,0,0,0,0 local ${local}" bad "${scn}")
  file(WRITE no-global-site.scn "${bad}")
  execute_process(
    COMMAND ${SCENARIO_LAB} --check no-global-site.scn
    RESULT_VARIABLE code
    OUTPUT_QUIET
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT code EQUAL 1 OR
     NOT err MATCHES "line 7: deployment needs at least one global site")
    message(FATAL_ERROR "scenario_lab --check (no global site, local "
                        "${local}): exit '${code}', stderr: ${err}")
  endif()
endforeach()
