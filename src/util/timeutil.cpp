#include "util/timeutil.h"

#include <cstdio>

namespace rootsim::util {

namespace {

// Days from the civil date to 1970-01-01 (Howard Hinnant's algorithm).
int64_t days_from_civil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void civil_from_days(int64_t z, int& y, int& m, int& d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  y = static_cast<int>(yy + (m <= 2));
}

}  // namespace

UnixTime make_time(int year, int month, int day, int hour, int minute, int second) {
  return days_from_civil(year, month, day) * kSecondsPerDay + hour * 3600 +
         minute * 60 + second;
}

CivilTime civil_from_unix(UnixTime t) {
  int64_t days = t / kSecondsPerDay;
  int64_t rem = t % kSecondsPerDay;
  if (rem < 0) {
    rem += kSecondsPerDay;
    --days;
  }
  CivilTime c{};
  civil_from_days(days, c.year, c.month, c.day);
  c.hour = static_cast<int>(rem / 3600);
  c.minute = static_cast<int>((rem % 3600) / 60);
  c.second = static_cast<int>(rem % 60);
  return c;
}

std::string format_date(UnixTime t) {
  CivilTime c = civil_from_unix(t);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02d", c.year, c.month, c.day);
  return buf;
}

std::string format_datetime(UnixTime t) {
  char buf[kDatetimeBufferSize];
  return {buf, write_datetime(buf, t)};
}

char* write_datetime(char* out, UnixTime t) {
  const CivilTime c = civil_from_unix(t);
  if (c.year < 0 || c.year > 9999)
    return out + std::snprintf(out, kDatetimeBufferSize,
                               "%04d-%02d-%02dT%02d:%02d:%02dZ", c.year,
                               c.month, c.day, c.hour, c.minute, c.second);
  const auto two = [&out](int value, char after) {
    *out++ = static_cast<char>('0' + value / 10);
    *out++ = static_cast<char>('0' + value % 10);
    if (after) *out++ = after;
  };
  two(c.year / 100, 0);
  two(c.year % 100, '-');
  two(c.month, '-');
  two(c.day, 'T');
  two(c.hour, ':');
  two(c.minute, ':');
  two(c.second, 'Z');
  return out;
}

UnixTime day_start(UnixTime t) {
  int64_t days = t / kSecondsPerDay;
  if (t % kSecondsPerDay < 0) --days;
  return days * kSecondsPerDay;
}

int64_t days_between(UnixTime a, UnixTime b) {
  return (day_start(b) - day_start(a)) / kSecondsPerDay;
}

}  // namespace rootsim::util
