#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace mtshare {

std::vector<std::string> Split(std::string_view text, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool ParseDouble(std::string_view text, double* out) {
  std::string buf(Trim(text));
  if (buf.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size() ||
      !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseInt64(std::string_view text, int64_t* out) {
  std::string buf(Trim(text));
  if (buf.empty()) return false;
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = value;
  return true;
}

bool ParseUint64(std::string_view text, uint64_t* out) {
  std::string buf(Trim(text));
  if (buf.empty()) return false;
  // strtoull accepts "-1" and wraps it to UINT64_MAX; reject any sign
  // explicitly ("+1" included, to keep the accepted grammar plain digits).
  if (!std::isdigit(static_cast<unsigned char>(buf[0]))) return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = value;
  return true;
}

std::string FormatDouble(double value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  return os.str();
}

}  // namespace mtshare
