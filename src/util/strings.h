// String helpers shared across modules: tokenization for the zone-file parser,
// case folding for DNS name comparison (RFC 1035 4.3.3: case-insensitive),
// printf-style formatting into std::string, and printf-style fatal errors.
#pragma once

#include <charconv>
#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace rootsim::util {

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char sep);

/// Splits on runs of whitespace; empty fields are dropped.
std::vector<std::string> split_whitespace(std::string_view text);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// ASCII lower-case copy (DNS case folding never touches non-ASCII).
std::string to_lower(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// The whole of `text` as one number (std::from_chars): empty text, text
/// with anything left over (`abc`, `8x`) and out-of-range values fail.
template <typename T>
bool parse_number(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && stop == end;
}

/// printf into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// printf a line to stderr, then abort: a caller-error check that, unlike
/// assert, holds in every build type. For preconditions whose violation
/// would otherwise hang or corrupt memory.
[[noreturn]] void fatal(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

}  // namespace rootsim::util
