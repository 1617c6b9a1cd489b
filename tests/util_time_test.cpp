#include "util/timeutil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace rootsim::util {
namespace {

TEST(Time, EpochIsZero) {
  EXPECT_EQ(make_time(1970, 1, 1), 0);
  EXPECT_EQ(format_datetime(0), "1970-01-01T00:00:00Z");
}

TEST(Time, PaperTimelineDates) {
  // Key events from Figure 2.
  UnixTime start = make_time(2023, 7, 3);
  UnixTime zonemd_added = make_time(2023, 9, 13);
  UnixTime zonemd_validates = make_time(2023, 12, 6);
  UnixTime broot_change = make_time(2023, 11, 27);
  UnixTime end = make_time(2023, 12, 24);
  EXPECT_EQ(format_date(start), "2023-07-03");
  EXPECT_EQ(format_date(zonemd_added), "2023-09-13");
  EXPECT_EQ(format_date(zonemd_validates), "2023-12-06");
  EXPECT_EQ(format_date(broot_change), "2023-11-27");
  // The measurement spans 174 days.
  EXPECT_EQ(days_between(start, end), 174);
  EXPECT_LT(start, zonemd_added);
  EXPECT_LT(zonemd_added, broot_change);
  EXPECT_LT(broot_change, zonemd_validates);
}

TEST(Time, CivilRoundTrip) {
  UnixTime t = make_time(2023, 12, 21, 10, 35, 17);
  CivilTime c = civil_from_unix(t);
  EXPECT_EQ(c.year, 2023);
  EXPECT_EQ(c.month, 12);
  EXPECT_EQ(c.day, 21);
  EXPECT_EQ(c.hour, 10);
  EXPECT_EQ(c.minute, 35);
  EXPECT_EQ(c.second, 17);
  EXPECT_EQ(format_datetime(t), "2023-12-21T10:35:17Z");
}

TEST(Time, LeapYearFebruary) {
  // 2024 is a leap year; the ISP-DNS-1 window 2024-02-05..2024-03-04 crosses
  // Feb 29.
  EXPECT_EQ(days_between(make_time(2024, 2, 5), make_time(2024, 3, 4)), 28);
  EXPECT_EQ(format_date(make_time(2024, 2, 29)), "2024-02-29");
  EXPECT_EQ(days_between(make_time(2024, 2, 28), make_time(2024, 3, 1)), 2);
}

TEST(Time, DayStartTruncates) {
  UnixTime t = make_time(2023, 10, 8, 23, 59, 59);
  EXPECT_EQ(day_start(t), make_time(2023, 10, 8));
  EXPECT_EQ(day_start(make_time(2023, 10, 8)), make_time(2023, 10, 8));
}

TEST(Time, RoundTripSweep) {
  // Property: make_time(civil_from_unix(t)) == t over a broad sweep.
  for (UnixTime t = make_time(2023, 1, 1); t < make_time(2025, 1, 1);
       t += 86400 * 7 + 3601) {
    CivilTime c = civil_from_unix(t);
    EXPECT_EQ(make_time(c.year, c.month, c.day, c.hour, c.minute, c.second), t);
  }
}

// The digit writer behind format_datetime matches snprintf's
// "%04d-%02d-%02dT%02d:%02d:%02dZ" at the epoch, the second before it, leap
// days, year ends, the first and last four-digit years, and the years on
// either side that take the snprintf fallback.
TEST(Time, DatetimeWriterMatchesPrintf) {
  const auto printf_datetime = [](UnixTime t) {
    const CivilTime c = civil_from_unix(t);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02dZ", c.year,
                  c.month, c.day, c.hour, c.minute, c.second);
    return std::string(buf);
  };
  std::vector<UnixTime> times = {
      0,
      -1,
      make_time(2024, 2, 29, 12, 34, 56),
      make_time(2000, 2, 29),
      make_time(1900, 2, 28, 23, 59, 59),
      make_time(1999, 12, 31, 23, 59, 59),
      make_time(2023, 12, 31, 23, 59, 59),
      make_time(2024, 1, 1),
      make_time(0, 1, 1),
      make_time(0, 1, 1) - 1,
      make_time(9999, 12, 31, 23, 59, 59),
      make_time(10000, 1, 1),
      make_time(-12345, 6, 7, 8, 9, 10),
      make_time(123456, 3, 4, 5, 6, 7),
  };
  for (UnixTime t = make_time(1960, 1, 1); t < make_time(2040, 1, 1);
       t += 86400 * 3 + 3607)
    times.push_back(t);
  EXPECT_EQ(format_datetime(-1), "1969-12-31T23:59:59Z");
  EXPECT_EQ(format_datetime(make_time(0, 1, 1) - 1), "-001-12-31T23:59:59Z");
  EXPECT_EQ(format_datetime(make_time(10000, 1, 1)), "10000-01-01T00:00:00Z");
  for (const UnixTime t : times) {
    char buf[kDatetimeBufferSize];
    char* end = write_datetime(buf, t);
    EXPECT_EQ(std::string(buf, end), printf_datetime(t)) << t;
    EXPECT_EQ(format_datetime(t), printf_datetime(t)) << t;
  }
}

}  // namespace
}  // namespace rootsim::util
