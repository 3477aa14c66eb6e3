#ifndef MTSHARE_COMMON_STRING_UTIL_H_
#define MTSHARE_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mtshare {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> Split(std::string_view text, char delim);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view text);

/// Parses a finite double; returns false on malformed/trailing input and
/// on "nan"/"inf" spellings, so no reader of untrusted input (edge lists,
/// trip and request files, flags) ever sees a non-finite value.
bool ParseDouble(std::string_view text, double* out);

/// Parses a signed 64-bit integer; returns false on malformed input.
bool ParseInt64(std::string_view text, int64_t* out);

/// Parses an unsigned 64-bit integer; returns false on malformed input.
/// Unlike strtoull, a leading '-' is rejected instead of wrapping, so
/// "-1" never silently becomes 2^64-1 (RNG seeds must round-trip exactly,
/// including UINT64_MAX, which a double-based parse cannot represent).
bool ParseUint64(std::string_view text, uint64_t* out);

/// Fixed-precision formatting helper for benchmark tables.
std::string FormatDouble(double value, int precision);

}  // namespace mtshare

#endif  // MTSHARE_COMMON_STRING_UTIL_H_
