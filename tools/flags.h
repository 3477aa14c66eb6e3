// Strict --key=value flag parsing shared by mtshare_sim and mtshare_serve.
//
// Every lookup records its key, so after a tool has read all of its flags
// FlagArgs::RejectUnread() can name any --key it never asked for: a typo
// such as --taxi=5 fails with exit 2 instead of silently running the
// default fleet.
#ifndef MTSHARE_TOOLS_FLAGS_H_
#define MTSHARE_TOOLS_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/string_util.h"

namespace mtshare {

/// Parsed flags plus the keys the tool has looked up so far.
class FlagArgs {
 public:
  /// Raw value of --key (a bare --key reads as "1"), or nullptr if absent.
  /// Marks the key as read either way.
  const std::string* Find(const std::string& key) {
    read_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  void Set(std::string key, std::string value) {
    values_.insert_or_assign(std::move(key), std::move(value));
  }

  /// Prints one diagnostic per flag no Find() asked for; false if any.
  bool RejectUnread() const {
    bool clean = true;
    for (const auto& [key, value] : values_) {
      if (read_.count(key) == 0) {
        std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
        clean = false;
      }
    }
    return clean;
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> read_;
};

/// Parses argv as --key=value / --key flags. Positional arguments are
/// reported on stderr and clear *ok.
inline FlagArgs ParseArgs(int argc, char** argv, bool* ok) {
  FlagArgs args;
  *ok = true;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
      *ok = false;
      continue;
    }
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      args.Set(arg.substr(2), "1");
    } else {
      args.Set(arg.substr(2, eq - 2), arg.substr(eq + 1));
    }
  }
  return args;
}

/// Strict numeric flag lookup: malformed values ("abc", "12x", "") are a
/// hard error instead of silently becoming 0 via atoi-style parsing.
inline double GetD(FlagArgs& args, const std::string& key, double fallback,
                   bool* ok) {
  const std::string* raw = args.Find(key);
  if (raw == nullptr) return fallback;
  double value = 0.0;
  if (!ParseDouble(Trim(*raw), &value)) {
    std::fprintf(stderr, "invalid numeric value for --%s: '%s'\n",
                 key.c_str(), raw->c_str());
    *ok = false;
    return fallback;
  }
  return value;
}

/// Strict non-negative integer flag (counts: taxis, requests, queue caps...).
inline int32_t GetCount(FlagArgs& args, const std::string& key,
                        int32_t fallback, bool* ok) {
  const std::string* raw = args.Find(key);
  if (raw == nullptr) return fallback;
  int64_t value = 0;
  if (!ParseInt64(Trim(*raw), &value) || value < 0 || value > INT32_MAX) {
    std::fprintf(stderr,
                 "invalid value for --%s: '%s' (want an integer >= 0)\n",
                 key.c_str(), raw->c_str());
    *ok = false;
    return fallback;
  }
  return static_cast<int32_t>(value);
}

inline std::string GetS(FlagArgs& args, const std::string& key,
                        const std::string& fallback) {
  const std::string* raw = args.Find(key);
  return raw == nullptr ? fallback : *raw;
}

/// Strict unsigned 64-bit flag (RNG seeds). A double-based parse would
/// silently round seeds above 2^53 and make negative inputs UB on the
/// cast; ParseUint64 keeps full precision up to UINT64_MAX and rejects
/// signs and garbage outright.
inline uint64_t GetU64(FlagArgs& args, const std::string& key,
                       uint64_t fallback, bool* ok) {
  const std::string* raw = args.Find(key);
  if (raw == nullptr) return fallback;
  uint64_t value = 0;
  if (!ParseUint64(Trim(*raw), &value)) {
    std::fprintf(stderr,
                 "invalid value for --%s: '%s' (want an unsigned integer)\n",
                 key.c_str(), raw->c_str());
    *ok = false;
    return fallback;
  }
  return value;
}

}  // namespace mtshare

#endif  // MTSHARE_TOOLS_FLAGS_H_
