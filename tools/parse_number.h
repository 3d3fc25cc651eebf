// Copyright 2026 The TrustLite Reproduction Authors.
//
// The one numeric-value parser of the command-line tools (tlfleet, tlfw,
// tlsim, tlfuzz). The whole token must be an unsigned integer (decimal,
// 0x-hex or 0-octal) inside the range of the setting it feeds, so a typo
// or an out-of-range value is a usage error instead of a silently zeroed
// or truncated setting (say, a lower anti-rollback version).

#ifndef TRUSTLITE_TOOLS_PARSE_NUMBER_H_
#define TRUSTLITE_TOOLS_PARSE_NUMBER_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace trustlite {

// Parses all of `text` as an unsigned integer in [lo, hi] into `out`.
// Returns "" on success, else what is wrong with the value; `out` is left
// untouched on failure.
template <typename T>
std::string ParseNumber(const std::string& text, uint64_t lo, uint64_t hi,
                        T* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 0);
  if (text.empty() || text[0] < '0' || text[0] > '9' || *end != '\0' ||
      errno == ERANGE || value < lo || value > hi) {
    return "'" + text + "' is not an integer in [" + std::to_string(lo) +
           ", " + std::to_string(hi) + "]";
  }
  *out = static_cast<T>(value);
  return "";
}

// ParseNumber for the value of `flag`; on failure prints
// "<tool>: <flag>: <what is wrong>" to stderr and returns false.
template <typename T>
bool ParseFlagNumber(const char* tool, const std::string& flag,
                     const std::string& text, uint64_t lo, uint64_t hi,
                     T* out) {
  const std::string error = ParseNumber(text, lo, hi, out);
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s: %s\n", tool, flag.c_str(), error.c_str());
    return false;
  }
  return true;
}

}  // namespace trustlite

#endif  // TRUSTLITE_TOOLS_PARSE_NUMBER_H_
