# scenario_lab must refuse a bad --tld or --workers value before it builds
# anything: exit code 1 and a message naming the flag. Each case would run
# (or, for --tld past the TLD generator's reach, never return) if the value
# were read leniently, so the timeout turns a hang into a failure.
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
