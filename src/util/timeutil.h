// Simulation time.
//
// The campaign runs on real calendar time (2023-07-03 .. 2023-12-24 for the
// active measurement, plus the passive windows in 2023-10/2024-02/2024-04), so
// we carry Unix timestamps and provide the small set of calendar operations the
// pipeline needs: date construction, ISO-8601 rendering and day arithmetic.
// All times are UTC; the simulated VP clock skew of Table 2 is modelled as an
// explicit per-VP offset, not as a timezone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace rootsim::util {

/// Seconds since the Unix epoch (UTC).
using UnixTime = int64_t;

inline constexpr int64_t kSecondsPerDay = 86400;

/// Builds a UTC timestamp from calendar fields (proleptic Gregorian).
UnixTime make_time(int year, int month, int day, int hour = 0, int minute = 0,
                   int second = 0);

/// Calendar fields of a UTC timestamp.
struct CivilTime {
  int year;
  int month;
  int day;
  int hour;
  int minute;
  int second;
};

CivilTime civil_from_unix(UnixTime t);

/// "2023-09-13" (ISO date).
std::string format_date(UnixTime t);

/// "2023-09-13T10:35:00Z".
std::string format_datetime(UnixTime t);

/// Room write_datetime() needs at `out`: a sign and ten year digits, the
/// rest of the stamp and a NUL.
inline constexpr size_t kDatetimeBufferSize = 32;

/// Writes format_datetime(t) to `out` without a terminator and returns one
/// past its last character. Years 0000-9999 take a digit writer; any other
/// year falls back to snprintf's %04d.
char* write_datetime(char* out, UnixTime t);

/// Midnight (UTC) of the day containing t.
UnixTime day_start(UnixTime t);

/// Number of whole days between two timestamps' days (b_day - a_day).
int64_t days_between(UnixTime a, UnixTime b);

}  // namespace rootsim::util
